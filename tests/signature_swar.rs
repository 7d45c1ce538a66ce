//! Property pin for the SWAR signature compare: `Signature::dominates`
//! and its field-restricted form `Signature::dominates_fields` must agree
//! with the per-group loop of `naive::dominates` on every layout the
//! schema constructors can build — variable-width `from_groups` layouts
//! with gaps, unused high bits and shuffled label order, every
//! `uniform(1..=64)`, and `organic()` — for counts that include 0 and
//! each group's saturated maximum, under random moved-field subsets.
//!
//! The case count defaults low so tier-1 stays fast; `scripts/check.sh`
//! reruns this file with `SIGMO_FUZZ_CASES=10000` for the deep sweep.

use proptest::prelude::*;
use sigmo::core::schema::BitGroup;
use sigmo::core::{naive, LabelSchema, Signature};

/// Per-test case count: `SIGMO_FUZZ_CASES` when set, else a tier-1-fast
/// default.
fn fuzz_cases() -> u32 {
    std::env::var("SIGMO_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// A splitmix64 stream: one proptest seed drives a whole case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A `from_groups` layout: widths 1–16 placed upward with random gaps,
/// stopped early or by the 64-bit ceiling (leaving unused high bits), in
/// shuffled label order.
fn random_layout(rng: &mut Mix) -> LabelSchema {
    let mut groups = Vec::new();
    let mut shift = rng.below(3) as u32;
    let stop_after = 1 + rng.below(64) as usize;
    while groups.len() < stop_after {
        let bits = 1 + rng.below(16) as u32;
        if shift + bits > 64 {
            break;
        }
        groups.push(BitGroup {
            shift: shift as u8,
            bits: bits as u8,
        });
        let gap = if rng.below(4) == 0 { rng.below(3) } else { 0 };
        shift += bits + gap as u32;
    }
    if groups.is_empty() {
        groups.push(BitGroup { shift: 0, bits: 1 });
    }
    for i in (1..groups.len()).rev() {
        groups.swap(i, rng.below(i as u64 + 1) as usize);
    }
    LabelSchema::from_groups(groups).expect("generated groups are valid")
}

fn layout(rng: &mut Mix) -> LabelSchema {
    match rng.below(3) {
        0 => random_layout(rng),
        1 => LabelSchema::uniform(1 + rng.below(64) as usize),
        _ => LabelSchema::organic(),
    }
}

/// A count for `g` biased to the edges: 0, 1, the saturated maximum and
/// one below it, or anything in range.
fn count(rng: &mut Mix, g: &BitGroup) -> u64 {
    let max = g.max_count();
    match rng.below(5) {
        0 => 0,
        1 => 1.min(max),
        2 => max,
        3 => max - 1,
        _ => rng.below(max + 1),
    }
}

/// A signature with a count in every group; a third of the groups copy
/// `like` so equal fields are common.
fn signature(rng: &mut Mix, schema: &LabelSchema, like: Option<&Signature>) -> Signature {
    let mut sig = 0u64;
    for g in schema.groups() {
        let c = match like {
            Some(other) if rng.below(3) == 0 => (other.0 & g.mask()) >> g.shift,
            _ => count(rng, g),
        };
        sig |= c << g.shift;
    }
    Signature(sig)
}

/// The per-group loop restricted to the groups whose MSB is in `fields`.
fn loop_dominates_fields(schema: &LabelSchema, d: &Signature, q: &Signature, fields: u64) -> bool {
    schema
        .groups()
        .iter()
        .filter(|g| fields & g.msb() != 0)
        .all(|g| q.0 & g.mask() <= d.0 & g.mask())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Full and field-restricted SWAR domination equal the loop form, in
    /// both directions of each pair, and `diff_groups` names exactly the
    /// MSBs of the groups whose counts differ.
    #[test]
    fn swar_domination_equals_the_group_loop(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let schema = layout(&mut rng);
        let all = schema.msb();
        prop_assert_eq!(
            all,
            schema.groups().iter().fold(0, |h, g| h | g.msb()),
            "cached MSB mask"
        );
        for _ in 0..16 {
            let d = signature(&mut rng, &schema, None);
            let q = signature(&mut rng, &schema, Some(&d));
            let fields = rng.next() & all;
            for (a, b) in [(d, q), (q, d), (d, d)] {
                prop_assert_eq!(
                    a.dominates(&schema, &b),
                    naive::dominates(&schema, &a, &b),
                    "dominates: {:#x} vs {:#x} on {:?}", a.0, b.0, schema.groups()
                );
                prop_assert_eq!(
                    a.dominates_fields(&schema, &b, fields),
                    loop_dominates_fields(&schema, &a, &b, fields),
                    "fields {:#x}: {:#x} vs {:#x} on {:?}", fields, a.0, b.0, schema.groups()
                );
            }
            let moved = schema
                .groups()
                .iter()
                .filter(|g| d.0 & g.mask() != q.0 & g.mask())
                .fold(0, |m, g| m | g.msb());
            prop_assert_eq!(d.diff_groups(&schema, &q), moved);
            prop_assert!(
                d.dominates_fields(&schema, &q, 0),
                "an empty field set always passes"
            );
        }
    }
}
