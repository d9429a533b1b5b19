//! Bit-packed bipolar kernels: ±1 hypervector algebra on machine words.
//!
//! The paper's co-design thesis is that HDC's ±1 algebra admits far
//! cheaper kernels than generic float math. This module is the host-side
//! realization: a bipolar vector stores 64 components per `u64`
//! (bit set = `+1`), the dot product reduces to XOR + popcount
//! (`dot = d − 2·hamming`), class scoring becomes a Hamming scan over
//! packed class hypervectors, and majority bundling runs on bit-sliced
//! vertical counters instead of unpacking to integers. Every kernel here
//! has a scalar reference in this module (`*_reference`) that the
//! `kernel_equivalence` suite pins bit-exact, including dimensions with a
//! partial tail word (`dim % 64 != 0`).
//!
//! # Tail-word convention
//!
//! When `dim % 64 != 0` the last word has `64 - dim % 64` padding bits.
//! Constructors always leave padding bits **zero**, and the distance
//! kernels additionally mask the final XOR word, so padding can never
//! leak into a score even for vectors assembled via [`PackedBipolar::concat`]
//! (which must shift-splice words when the running dimension is not
//! word-aligned).

use crate::error::TensorError;
use crate::Result;

/// Number of bipolar components packed per storage word.
pub const LANES: usize = 64;

/// A packed vector of `+1`/`-1` components (bit set = `+1`), 64 lanes per
/// `u64`.
///
/// # Examples
///
/// ```
/// use hd_tensor::packed::PackedBipolar;
///
/// let a = PackedBipolar::from_signs(&[1.0, -2.0, 0.5]);
/// let b = PackedBipolar::from_signs(&[1.0, 2.0, 0.5]);
/// assert_eq!(a.hamming(&b).unwrap(), 1);
/// assert_eq!(a.dot(&b).unwrap(), 1); // 3 - 2*1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBipolar {
    words: Vec<u64>,
    dim: usize,
}

/// Mask selecting the valid (non-padding) bits of the final word for a
/// vector of `dim` components; all-ones when `dim` is word-aligned.
fn tail_mask(dim: usize) -> u64 {
    if dim.is_multiple_of(LANES) {
        u64::MAX
    } else {
        (1u64 << (dim % LANES)) - 1
    }
}

impl PackedBipolar {
    /// Packs the signs of a real vector (`v >= 0` maps to `+1`), matching
    /// the repo-wide binarization rule (ties at zero round to `+1`).
    #[must_use]
    pub fn from_signs(values: &[f32]) -> Self {
        let dim = values.len();
        let mut words = vec![0u64; dim.div_ceil(LANES)];
        for (i, &v) in values.iter().enumerate() {
            if v >= 0.0 {
                words[i / LANES] |= 1u64 << (i % LANES);
            }
        }
        PackedBipolar { words, dim }
    }

    /// Builds a vector from raw packed words.
    ///
    /// Padding bits in the final word are cleared, so any `u64` source is
    /// acceptable.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `words.len()` is not
    /// exactly `dim.div_ceil(64)`.
    pub fn from_words(mut words: Vec<u64>, dim: usize) -> Result<Self> {
        let expected = dim.div_ceil(LANES);
        if words.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: words.len(),
            });
        }
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(dim);
        }
        Ok(PackedBipolar { words, dim })
    }

    /// Number of components.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed storage words (padding bits of the last word are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Storage bytes of the packed form.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// Unpacks back to `+1.0` / `-1.0` values.
    pub fn to_signs(&self) -> Vec<f32> {
        (0..self.dim)
            .map(|i| {
                if self.words[i / LANES] >> (i % LANES) & 1 == 1 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }

    /// Component `i` as `+1` / `-1`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn sign(&self, i: usize) -> i8 {
        assert!(i < self.dim, "index {i} out of bounds ({})", self.dim);
        if self.words[i / LANES] >> (i % LANES) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Hamming distance (number of differing components).
    ///
    /// Padding bits never contribute: constructors keep them zero, so the
    /// XOR of two same-dimension vectors is already clean in the tail.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when dimensionalities
    /// differ.
    pub fn hamming(&self, other: &PackedBipolar) -> Result<u32> {
        if self.dim != other.dim {
            return Err(TensorError::ShapeMismatch {
                op: "packed hamming",
                lhs: (1, self.dim),
                rhs: (1, other.dim),
            });
        }
        Ok(hamming_words(&self.words, &other.words))
    }

    /// Bipolar dot product `sum_i a_i b_i = d − 2·hamming(a, b)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when dimensionalities
    /// differ.
    pub fn dot(&self, other: &PackedBipolar) -> Result<i64> {
        let h = i64::from(self.hamming(other)?);
        Ok(self.dim as i64 - 2 * h)
    }

    /// Concatenates packed vectors into one long packed vector, splicing
    /// across word boundaries when a running dimension is not a multiple
    /// of 64 (the case bagged merges hit: member dims need not be
    /// word-aligned).
    #[must_use]
    pub fn concat(parts: &[PackedBipolar]) -> PackedBipolar {
        let dim: usize = parts.iter().map(PackedBipolar::dim).sum();
        let mut words = vec![0u64; dim.div_ceil(LANES)];
        let mut offset = 0usize; // bit offset into `words`
        for part in parts {
            let shift = offset % LANES;
            let base = offset / LANES;
            for (w, &pw) in part.words.iter().enumerate() {
                words[base + w] |= pw << shift;
                if shift != 0 && base + w + 1 < words.len() {
                    words[base + w + 1] |= pw >> (LANES - shift);
                }
            }
            offset += part.dim;
        }
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(dim);
        }
        PackedBipolar { words, dim }
    }
}

/// XOR + popcount over two equal-length word slices.
fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones())
        .sum::<u32>()
}

/// Class hypervectors kept resident in packed form, one per class, stored
/// contiguously so a batch scoring scan streams one flat buffer.
///
/// Scoring returns bipolar dot products (`d − 2·hamming`); the nearest
/// class under maximum dot is exactly the nearest under minimum Hamming
/// distance, and ties resolve to the lowest class index — the same rule as
/// [`crate::ops::argmax`] on the float path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedClassHypervectors {
    /// `classes * words_per_class` packed words, class-major.
    words: Vec<u64>,
    dim: usize,
    classes: usize,
}

impl PackedClassHypervectors {
    /// Packs one hypervector per class from already-packed vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty class list and
    /// [`TensorError::ShapeMismatch`] when class dimensionalities differ.
    pub fn from_classes(classes: &[PackedBipolar]) -> Result<Self> {
        let first = classes.first().ok_or(TensorError::EmptyDimension {
            op: "packed class hypervectors",
        })?;
        if first.dim == 0 {
            return Err(TensorError::EmptyDimension {
                op: "packed class hypervectors",
            });
        }
        let dim = first.dim;
        let mut words = Vec::with_capacity(classes.len() * first.words.len());
        for class in classes {
            if class.dim != dim {
                return Err(TensorError::ShapeMismatch {
                    op: "packed class hypervectors",
                    lhs: (1, dim),
                    rhs: (1, class.dim),
                });
            }
            words.extend_from_slice(&class.words);
        }
        Ok(PackedClassHypervectors {
            words,
            dim,
            classes: classes.len(),
        })
    }

    /// Packs the rows of sign data, one class per row of `rows`.
    ///
    /// # Errors
    ///
    /// As [`PackedClassHypervectors::from_classes`].
    pub fn from_sign_rows(rows: &[&[f32]]) -> Result<Self> {
        let packed: Vec<PackedBipolar> = rows
            .iter()
            .map(|row| PackedBipolar::from_signs(row))
            .collect();
        Self::from_classes(&packed)
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Hypervector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage bytes of the packed class model.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// Class `j` as a standalone packed vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `j` is out of range.
    pub fn class(&self, j: usize) -> Result<PackedBipolar> {
        if j >= self.classes {
            return Err(TensorError::IndexOutOfBounds {
                index: j,
                bound: self.classes,
            });
        }
        let stride = self.dim.div_ceil(LANES);
        Ok(PackedBipolar {
            words: self.words[j * stride..(j + 1) * stride].to_vec(),
            dim: self.dim,
        })
    }

    /// Bipolar dot scores of `query` against every class.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn scores(&self, query: &PackedBipolar) -> Result<Vec<i64>> {
        if query.dim != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "packed class scores",
                lhs: (1, query.dim),
                rhs: (self.classes, self.dim),
            });
        }
        let stride = self.dim.div_ceil(LANES);
        let d = self.dim as i64;
        Ok(self
            .words
            .chunks(stride.max(1))
            .map(|class| d - 2 * i64::from(hamming_words(class, &query.words)))
            .collect())
    }

    /// Index of the nearest class (maximum dot = minimum Hamming), ties
    /// to the lowest index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a dimensionality
    /// mismatch.
    pub fn nearest(&self, query: &PackedBipolar) -> Result<usize> {
        if query.dim != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "packed nearest class",
                lhs: (1, query.dim),
                rhs: (self.classes, self.dim),
            });
        }
        let stride = self.dim.div_ceil(LANES).max(1);
        let mut best = 0usize;
        let mut best_h = u32::MAX;
        for (j, class) in self.words.chunks(stride).enumerate() {
            let h = hamming_words(class, &query.words);
            if h < best_h {
                best_h = h;
                best = j;
            }
        }
        Ok(best)
    }

    /// Predicts the nearest class for each query in a batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on any dimensionality
    /// mismatch.
    pub fn predict_batch(&self, queries: &[PackedBipolar]) -> Result<Vec<usize>> {
        crate::kernels::note_packed_score(queries.len());
        queries.iter().map(|q| self.nearest(q)).collect()
    }
}

/// Majority-bundles packed bipolar vectors with bit-sliced vertical
/// counters: per-lane popcounts are accumulated across `vectors` in
/// `ceil(log2(n+1))` bit planes by ripple-carry addition, then compared
/// against the majority threshold with a bitwise MSB-first comparator —
/// no per-component unpacking anywhere.
///
/// The threshold matches the repo's binarization rule exactly: component
/// `i` of the bundle is `+1` iff `sum_v sign_v(i) >= 0`, i.e. iff at
/// least `ceil(n/2)` members vote `+1` (ties at an even split round to
/// `+1`, like `from_signs` rounds `0.0`).
///
/// # Errors
///
/// Returns [`TensorError::EmptyDimension`] for an empty input and
/// [`TensorError::ShapeMismatch`] when member dimensionalities differ.
pub fn majority_bundle(vectors: &[PackedBipolar]) -> Result<PackedBipolar> {
    let first = vectors.first().ok_or(TensorError::EmptyDimension {
        op: "majority bundle",
    })?;
    let dim = first.dim;
    let word_count = first.words.len();
    let n = vectors.len();
    // Enough planes to hold counts up to n: counts occupy bits 0..planes.
    let planes = usize::BITS as usize - n.leading_zeros() as usize;
    let mut counter = vec![vec![0u64; word_count]; planes];

    for v in vectors {
        if v.dim != dim {
            return Err(TensorError::ShapeMismatch {
                op: "majority bundle",
                lhs: (1, dim),
                rhs: (1, v.dim),
            });
        }
        crate::kernels::note_bundle_word(word_count);
        for (w, &vw) in v.words.iter().enumerate() {
            // Ripple-carry add of the 1-bit plane `vw` into the counter.
            let mut carry = vw;
            for plane in counter.iter_mut() {
                if carry == 0 {
                    break;
                }
                let overflow = plane[w] & carry;
                plane[w] ^= carry;
                carry = overflow;
            }
            debug_assert_eq!(carry, 0, "counter planes sized for n={n}");
        }
    }

    // Majority: count >= t with t = ceil(n/2), decided lane-parallel by an
    // MSB-first greater/equal comparator over the bit planes.
    let t = n.div_ceil(2) as u64;
    let mut words = vec![0u64; word_count];
    for (w, out) in words.iter_mut().enumerate() {
        let mut gt = 0u64;
        let mut eq = u64::MAX;
        for b in (0..planes).rev() {
            let p = counter[b][w];
            let tb = if t >> b & 1 == 1 { u64::MAX } else { 0 };
            gt |= eq & p & !tb;
            eq &= !(p ^ tb);
        }
        *out = gt | eq;
    }
    if let Some(last) = words.last_mut() {
        *last &= tail_mask(dim);
    }
    Ok(PackedBipolar { words, dim })
}

/// Scalar reference for [`majority_bundle`]: unpack, sum, re-binarize
/// with the `>= 0 → +1` rule. Used by the equivalence suites; never on a
/// hot path.
///
/// # Errors
///
/// As [`majority_bundle`].
pub fn majority_bundle_reference(vectors: &[PackedBipolar]) -> Result<PackedBipolar> {
    let first = vectors.first().ok_or(TensorError::EmptyDimension {
        op: "majority bundle reference",
    })?;
    let dim = first.dim;
    let mut sums = vec![0i64; dim];
    for v in vectors {
        if v.dim != dim {
            return Err(TensorError::ShapeMismatch {
                op: "majority bundle reference",
                lhs: (1, dim),
                rhs: (1, v.dim),
            });
        }
        for (s, &sign) in sums.iter_mut().zip(v.to_signs().iter()) {
            *s += if sign >= 0.0 { 1 } else { -1 };
        }
    }
    let signs: Vec<f32> = sums
        .iter()
        .map(|&s| if s >= 0 { 1.0 } else { -1.0 })
        .collect();
    Ok(PackedBipolar::from_signs(&signs))
}

/// Scalar reference for the packed dot product: unpack and multiply–add.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when dimensionalities differ.
pub fn dot_reference(a: &PackedBipolar, b: &PackedBipolar) -> Result<i64> {
    if a.dim != b.dim {
        return Err(TensorError::ShapeMismatch {
            op: "packed dot reference",
            lhs: (1, a.dim),
            rhs: (1, b.dim),
        });
    }
    Ok(a.to_signs()
        .iter()
        .zip(b.to_signs())
        .map(|(&x, y)| i64::from(x as i32) * i64::from(y as i32))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn random_packed(dim: usize, rng: &mut DetRng) -> PackedBipolar {
        let values: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
        PackedBipolar::from_signs(&values)
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let values = [1.5f32, -0.2, 0.0, -7.0, 3.0];
        let v = PackedBipolar::from_signs(&values);
        assert_eq!(v.to_signs(), vec![1.0, -1.0, 1.0, -1.0, 1.0]);
        assert_eq!(v.dim(), 5);
        assert_eq!(v.sign(0), 1);
        assert_eq!(v.sign(3), -1);
    }

    #[test]
    fn from_words_masks_padding() {
        let v = PackedBipolar::from_words(vec![u64::MAX], 5).unwrap();
        assert_eq!(v.words()[0], 0b11111);
        assert!(PackedBipolar::from_words(vec![0; 2], 64).is_err());
    }

    #[test]
    fn dot_matches_reference_across_tail_dims() {
        let mut rng = DetRng::new(71);
        for dim in [1usize, 63, 64, 65, 127, 128, 130, 1000] {
            let a = random_packed(dim, &mut rng);
            let b = random_packed(dim, &mut rng);
            assert_eq!(
                a.dot(&b).unwrap(),
                dot_reference(&a, &b).unwrap(),
                "dim {dim}"
            );
            assert_eq!(a.hamming(&a).unwrap(), 0);
            assert_eq!(a.hamming(&b).unwrap(), b.hamming(&a).unwrap());
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = PackedBipolar::from_signs(&[1.0; 10]);
        let b = PackedBipolar::from_signs(&[1.0; 11]);
        assert!(a.hamming(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn class_scores_match_per_class_dots() {
        let mut rng = DetRng::new(72);
        let classes: Vec<PackedBipolar> = (0..5).map(|_| random_packed(130, &mut rng)).collect();
        let packed = PackedClassHypervectors::from_classes(&classes).unwrap();
        let query = random_packed(130, &mut rng);
        let scores = packed.scores(&query).unwrap();
        for (j, class) in classes.iter().enumerate() {
            assert_eq!(scores[j], class.dot(&query).unwrap(), "class {j}");
        }
        let nearest = packed.nearest(&query).unwrap();
        let best = scores
            .iter()
            .enumerate()
            .max_by_key(|&(j, &s)| (s, std::cmp::Reverse(j)))
            .map(|(j, _)| j)
            .unwrap();
        assert_eq!(nearest, best);
        assert_eq!(packed.class(2).unwrap(), classes[2]);
        assert!(packed.class(5).is_err());
    }

    #[test]
    fn nearest_tie_resolves_to_lowest_index() {
        let c = PackedBipolar::from_signs(&[1.0, 1.0, -1.0, -1.0]);
        let packed = PackedClassHypervectors::from_classes(&[c.clone(), c]).unwrap();
        let query = PackedBipolar::from_signs(&[1.0, -1.0, 1.0, -1.0]);
        assert_eq!(packed.nearest(&query).unwrap(), 0);
    }

    #[test]
    fn empty_and_mismatched_classes_rejected() {
        assert!(PackedClassHypervectors::from_classes(&[]).is_err());
        let a = PackedBipolar::from_signs(&[1.0; 10]);
        let b = PackedBipolar::from_signs(&[1.0; 11]);
        assert!(PackedClassHypervectors::from_classes(&[a, b]).is_err());
    }

    #[test]
    fn majority_bundle_matches_reference() {
        let mut rng = DetRng::new(73);
        for n in [1usize, 2, 3, 4, 5, 8, 17] {
            for dim in [1usize, 63, 64, 65, 200] {
                let members: Vec<PackedBipolar> =
                    (0..n).map(|_| random_packed(dim, &mut rng)).collect();
                let fast = majority_bundle(&members).unwrap();
                let slow = majority_bundle_reference(&members).unwrap();
                assert_eq!(fast, slow, "n={n} dim={dim}");
            }
        }
    }

    #[test]
    fn even_split_ties_round_to_plus_one() {
        let plus = PackedBipolar::from_signs(&[1.0; 70]);
        let minus = PackedBipolar::from_signs(&[-1.0; 70]);
        let bundle = majority_bundle(&[plus.clone(), minus]).unwrap();
        assert_eq!(
            bundle, plus,
            "2-way tie must round to +1 like from_signs(0.0)"
        );
    }

    #[test]
    fn bundle_rejects_empty_and_mismatch() {
        assert!(majority_bundle(&[]).is_err());
        let a = PackedBipolar::from_signs(&[1.0; 10]);
        let b = PackedBipolar::from_signs(&[1.0; 11]);
        assert!(majority_bundle(&[a, b]).is_err());
    }

    #[test]
    fn concat_splices_unaligned_parts() {
        let mut rng = DetRng::new(74);
        for dims in [
            vec![3usize, 64, 61],
            vec![70, 70, 70],
            vec![1, 1, 1],
            vec![64, 128],
        ] {
            let parts: Vec<PackedBipolar> =
                dims.iter().map(|&d| random_packed(d, &mut rng)).collect();
            let joined = PackedBipolar::concat(&parts);
            let expected: Vec<f32> = parts.iter().flat_map(|p| p.to_signs()).collect();
            assert_eq!(joined.to_signs(), expected, "dims {dims:?}");
            assert_eq!(joined.dim(), dims.iter().sum::<usize>());
        }
    }

    #[test]
    fn predict_batch_scans_all_queries() {
        let mut rng = DetRng::new(75);
        let classes: Vec<PackedBipolar> = (0..3).map(|_| random_packed(100, &mut rng)).collect();
        let packed = PackedClassHypervectors::from_classes(&classes).unwrap();
        // Each class is its own nearest neighbour.
        let preds = packed.predict_batch(&classes).unwrap();
        assert_eq!(preds, vec![0, 1, 2]);
    }
}
