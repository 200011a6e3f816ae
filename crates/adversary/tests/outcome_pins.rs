//! Bit-for-bit pins of the §7 adversary's outcomes at ψ = 0.35, the `lab`
//! `impossibility` experiment's first row group: a change to the
//! flattening loop, its neighbour search or a victim's Compute that moves
//! any of these values changes the experiment's rows.

use cohesion_adversary::run_impossibility;
use cohesion_adversary::spiral::robots;
use cohesion_algorithms::{AndoAlgorithm, KatreniakAlgorithm};
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_geometry::Vec2;
use cohesion_model::Algorithm;

/// Per victim: `to_bits` of the final |AB|, the max radial drift and |AB|
/// before release, then sweeps, tail activations and nesting k.
#[rustfmt::skip]
const PINS: [[u64; 6]; 3] = [
    [0x3ff02451e1f7b4d3, 0x3fad276135c94e80, 0x3feea72f9f31c901, 2, 82, 2],
    [0x3ff0001a7d140f2b, 0x3fb3269864dbb580, 0x3fee85303e661131, 192, 7872, 192],
    [0x3ff00001cb5673d0, 0x3fe5f4cde9f3c620, 0x3feef432f0384fbd, 5275, 216275, 5275],
];

#[test]
fn spiral_outcomes_are_pinned_at_psi_035() {
    let victims: [Box<dyn Algorithm<Vec2>>; 3] = [
        Box::new(AndoAlgorithm::new(1.0)),
        Box::new(KatreniakAlgorithm::new()),
        Box::new(KirkpatrickAlgorithm::new(1)),
    ];
    for (victim, pin) in victims.iter().zip(PINS) {
        let o = run_impossibility(&**victim, 0.35, 60_000);
        let seen = [
            o.final_ab_distance.to_bits(),
            o.max_radial_drift.to_bits(),
            o.b_radius_before_release.to_bits(),
            o.sweeps as u64,
            o.tail_activations as u64,
            o.nesting_k as u64,
        ];
        assert_eq!(seen, pin, "{}", o.algorithm);
        let ab = (robots::A.index(), robots::B.index());
        assert_eq!(o.broken_initial_edges, vec![ab], "{}", o.algorithm);
    }
}
