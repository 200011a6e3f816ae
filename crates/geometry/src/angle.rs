//! Angular utilities: normalization, differences, and the *largest angular
//! gap* computation underlying the paper's target-destination rule (§5).
//!
//! The paper's algorithm moves a robot toward the midpoint of the safe-region
//! centres of the two distant neighbours “that define the largest sector
//! containing all of the distant neighbours”. Operationally: sort the
//! neighbour directions, find the largest gap between consecutive directions;
//! if that gap is `< π` the directions positively span the plane (the robot is
//! inside the convex hull of its distant neighbours) and the move is nil;
//! otherwise the two directions bounding the gap are the extreme pair.

use std::f64::consts::{PI, TAU};

/// Normalizes an angle into `(-π, π]`.
///
/// ```
/// use cohesion_geometry::angle::normalize;
/// use std::f64::consts::PI;
/// assert!((normalize(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((normalize(-3.5 * PI) - 0.5 * PI).abs() < 1e-12);
/// ```
#[inline]
pub fn normalize(theta: f64) -> f64 {
    // `%` returns its operand unchanged below one turn, so skip the `fmod`
    // call there: every `atan2` result takes this path.
    let mut t = if theta.abs() < TAU {
        theta
    } else {
        theta % TAU
    };
    if t <= -PI {
        t += TAU;
    } else if t > PI {
        t -= TAU;
    }
    t
}

/// The signed smallest rotation taking angle `from` to angle `to`,
/// in `(-π, π]`.
///
/// ```
/// use cohesion_geometry::angle::signed_diff;
/// use std::f64::consts::PI;
/// assert!((signed_diff(0.1, -0.1) - (-0.2)).abs() < 1e-12);
/// assert!((signed_diff(-3.0, 3.0).abs() - (2.0 * PI - 6.0)).abs() < 1e-12);
/// ```
#[inline]
pub fn signed_diff(from: f64, to: f64) -> f64 {
    normalize(to - from)
}

/// Result of the largest-angular-gap analysis of a set of directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngularGap {
    /// Width of the largest gap (radians, in `[0, 2π]`).
    pub width: f64,
    /// Index (into the input slice) of the direction on the clockwise side of
    /// the gap, i.e. the first direction encountered going counterclockwise
    /// *after* the gap.
    pub after: usize,
    /// Index of the direction on the counterclockwise side of the gap, i.e.
    /// the last direction encountered *before* the gap.
    pub before: usize,
}

/// Finds the largest angular gap in a set of directions (radians).
///
/// Returns `None` for an empty input. With a single direction the gap is the
/// full circle (`width = 2π`, `after == before == 0`).
///
/// The pair `(after, before)` is exactly the paper's “extreme pair”: all
/// input directions lie in the counterclockwise sector from
/// `angles[gap.after]` to `angles[gap.before]`, whose width is
/// `2π - gap.width`.
///
/// ```
/// use cohesion_geometry::angle::largest_gap;
/// let gap = largest_gap(&[0.0, 1.0, 2.5]).unwrap();
/// assert!((gap.width - (2.0 * std::f64::consts::PI - 2.5)).abs() < 1e-12);
/// assert_eq!((gap.after, gap.before), (0, 2));
/// ```
pub fn largest_gap(angles: &[f64]) -> Option<AngularGap> {
    if angles.is_empty() {
        return None;
    }
    if angles.len() == 1 {
        return Some(AngularGap {
            width: TAU,
            after: 0,
            before: 0,
        });
    }
    // Sort indices by normalized angle.
    let mut idx: Vec<usize> = (0..angles.len()).collect();
    let norm: Vec<f64> = angles.iter().map(|&a| normalize(a)).collect();
    idx.sort_by(|&i, &j| {
        norm[i]
            .partial_cmp(&norm[j])
            .expect("angles must be finite")
    });
    let mut best_width = f64::NEG_INFINITY;
    let mut best = (0usize, 0usize);
    for w in 0..idx.len() {
        let i = idx[w];
        let j = idx[(w + 1) % idx.len()];
        let mut gap = norm[j] - norm[i];
        if w + 1 == idx.len() {
            gap += TAU;
        }
        if gap > best_width {
            best_width = gap;
            best = (j, i);
        }
    }
    Some(AngularGap {
        width: best_width,
        after: best.0,
        before: best.1,
    })
}

/// Returns `true` when the given directions positively span the plane, i.e.
/// when the origin lies in the interior of the convex hull of the unit
/// vectors at those angles. Equivalent to “largest gap `< π`” up to `eps`.
///
/// In the paper's algorithm this is the condition under which the activated
/// robot performs the nil movement (§5: “the distant neighbours are not
/// properly contained in any halfspace”).
pub fn positively_spans(angles: &[f64], eps: f64) -> bool {
    match largest_gap(angles) {
        None => false,
        Some(g) => g.width < PI - eps,
    }
}

/// The angular span of a set of directions: the width of the smallest sector
/// containing all of them, `2π − largest_gap`. Returns `0` for empty input.
pub fn span(angles: &[f64]) -> f64 {
    match largest_gap(angles) {
        None => 0.0,
        Some(g) => (TAU - g.width).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_4;

    #[test]
    fn normalize_range() {
        for k in -10..=10 {
            let t = normalize(0.3 + k as f64 * TAU);
            assert!((t - 0.3).abs() < 1e-9);
        }
        assert!((normalize(PI) - PI).abs() < 1e-12);
        assert!((normalize(-PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn normalize_matches_the_remainder_form_bitwise() {
        let reference = |theta: f64| {
            let mut t = theta % TAU;
            if t <= -PI {
                t += TAU;
            } else if t > PI {
                t -= TAU;
            }
            t
        };
        let mut probes = vec![0.0, -0.0, PI, -PI, TAU, -TAU, 1e-300, -1e-300, 1e9, -7.5];
        for k in -40..=40 {
            let x = f64::from(k) * FRAC_PI_4;
            probes.extend([x, x.next_up(), x.next_down()]);
        }
        for theta in probes {
            assert_eq!(
                normalize(theta).to_bits(),
                reference(theta).to_bits(),
                "normalize({theta:?})"
            );
        }
        assert!(normalize(f64::NAN).is_nan() && normalize(f64::INFINITY).is_nan());
    }

    #[test]
    fn diff_is_antisymmetric() {
        let d = signed_diff(0.5, 1.7);
        assert!((d - 1.2).abs() < 1e-12);
        assert!((signed_diff(1.7, 0.5) + 1.2).abs() < 1e-12);
    }

    #[test]
    fn largest_gap_two_points() {
        let g = largest_gap(&[0.0, PI / 2.0]).unwrap();
        assert!((g.width - 1.5 * PI).abs() < 1e-12);
        assert_eq!((g.after, g.before), (0, 1));
    }

    #[test]
    fn largest_gap_wraps() {
        // Directions at 3.0 and −3.0 rad straddle the ±π seam; the small gap
        // (through the seam) is 2π−6 ≈ 0.283, so the large gap is 6.0.
        let g = largest_gap(&[3.0, -3.0]).unwrap();
        assert!((g.width - 6.0).abs() < 1e-12);
    }

    #[test]
    fn single_direction_full_circle() {
        let g = largest_gap(&[1.0]).unwrap();
        assert_eq!(g.width, TAU);
    }

    #[test]
    fn spanning_detection() {
        // Three directions 120° apart positively span.
        assert!(positively_spans(&[0.0, TAU / 3.0, 2.0 * TAU / 3.0], 1e-9));
        // Two opposite directions do not (gap exactly π).
        assert!(!positively_spans(&[0.0, PI], 1e-9));
        // A half-plane cluster does not.
        assert!(!positively_spans(&[0.0, 0.5, 1.0], 1e-9));
    }

    #[test]
    fn span_of_cluster() {
        assert!((span(&[0.0, 0.5, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(span(&[]), 0.0);
    }

    #[test]
    fn extreme_pair_brute_force_agreement() {
        // Compare against a brute-force O(n²) largest-gap search.
        let sets: Vec<Vec<f64>> = vec![
            vec![0.1, 0.9, 2.2, -2.0, 3.1],
            vec![-0.4, -0.5, -0.6],
            vec![1.0, 1.0001, -1.0],
        ];
        for angles in sets {
            let g = largest_gap(&angles).unwrap();
            // Brute force: for each ordered pair (i, j), the ccw arc from i
            // to j contains no other direction ⇒ candidate gap.
            let mut best = f64::NEG_INFINITY;
            for i in 0..angles.len() {
                for j in 0..angles.len() {
                    if i == j {
                        continue;
                    }
                    let w = {
                        let d = normalize(angles[j] - angles[i]);
                        if d <= 0.0 {
                            d + TAU
                        } else {
                            d
                        }
                    };
                    let empty = (0..angles.len()).all(|k| {
                        if k == i || k == j {
                            return true;
                        }
                        let d = {
                            let d = normalize(angles[k] - angles[i]);
                            if d < 0.0 {
                                d + TAU
                            } else {
                                d
                            }
                        };
                        d >= w - 1e-12
                    });
                    if empty && w > best {
                        best = w;
                    }
                }
            }
            assert!(
                (g.width - best).abs() < 1e-9,
                "gap {} vs brute {}",
                g.width,
                best
            );
        }
    }
}
