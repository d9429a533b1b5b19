//! Binary persistence for trained HDC models.
//!
//! An edge deployment trains once (or occasionally) and predicts for a
//! long time; the paper's framework keeps the trained base and class
//! hypervectors around to regenerate accelerator models on demand. This
//! module provides the compact `.hdm` container for that artifact.
//!
//! Layout (little-endian):
//!
//! ```text
//! HDM1 | u32 version | u32 features | u32 dim | u32 classes
//!      | u8 similarity tag (always 0: dot product)
//!      | f32 x (features * dim)   base hypervectors, row-major
//!      | f32 x (dim * classes)    class hypervectors, row-major
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use hd_tensor::Matrix;

use crate::encoder::{BaseHypervectors, NonlinearEncoder};
use crate::error::HdcError;
use crate::model::{ClassHypervectors, HdcModel};
use crate::Result;

const MAGIC: &[u8; 4] = b"HDM1";
const VERSION: u32 = 1;
/// The header's similarity tag. Models score by dot product only; the
/// byte stays so existing files keep their layout.
const DOT_TAG: u8 = 0;

/// Serializes a trained model to its binary container.
///
/// # Examples
///
/// ```
/// use hd_tensor::Matrix;
/// use hdc::{serialize, HdcModel, TrainConfig};
///
/// # fn main() -> Result<(), hdc::HdcError> {
/// let features = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]])?;
/// let (model, _) = HdcModel::fit(&features, &[0, 1], 2, &TrainConfig::new(64))?;
/// let blob = serialize::write_model(&model);
/// let restored = serialize::read_model(&blob)?;
/// assert_eq!(restored, model);
/// # Ok(())
/// # }
/// ```
pub fn write_model(model: &HdcModel) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(model.feature_count() as u32);
    buf.put_u32_le(model.dim() as u32);
    buf.put_u32_le(model.class_count() as u32);
    buf.put_u8(DOT_TAG);
    for &v in model.encoder().base().as_matrix().iter() {
        buf.put_f32_le(v);
    }
    for &v in model.classes().as_matrix().iter() {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

fn need(buf: &impl Buf, bytes: usize, what: &str) -> Result<()> {
    if buf.remaining() < bytes {
        return Err(HdcError::InvalidConfig(
            // A 'static str is required by the error type; the caller's
            // context string is folded into a stable message per section.
            match what {
                "header" => "truncated model container: header",
                "base" => "truncated model container: base hypervectors",
                "classes" => "truncated model container: class hypervectors",
                _ => "truncated model container",
            },
        ));
    }
    Ok(())
}

/// Deserializes a model written by [`write_model`].
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] on bad magic, version, similarity
/// tag, or truncation.
pub fn read_model(data: &[u8]) -> Result<HdcModel> {
    let mut buf = data;
    need(&buf, 4 + 4 + 4 + 4 + 4 + 1, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(HdcError::InvalidConfig("bad model container magic"));
    }
    if buf.get_u32_le() != VERSION {
        return Err(HdcError::InvalidConfig(
            "unsupported model container version",
        ));
    }
    let features = buf.get_u32_le() as usize;
    let dim = buf.get_u32_le() as usize;
    let classes = buf.get_u32_le() as usize;
    if buf.get_u8() != DOT_TAG {
        return Err(HdcError::InvalidConfig("unknown similarity tag"));
    }

    let base_len = features
        .checked_mul(dim)
        .and_then(|n| n.checked_mul(4))
        .ok_or(HdcError::InvalidConfig("base dimensions overflow"))?;
    need(&buf, base_len, "base")?;
    let mut base = Vec::with_capacity(features * dim);
    for _ in 0..features * dim {
        base.push(buf.get_f32_le());
    }
    let class_len = dim
        .checked_mul(classes)
        .and_then(|n| n.checked_mul(4))
        .ok_or(HdcError::InvalidConfig("class dimensions overflow"))?;
    need(&buf, class_len, "classes")?;
    let mut class_data = Vec::with_capacity(dim * classes);
    for _ in 0..dim * classes {
        class_data.push(buf.get_f32_le());
    }

    let encoder = NonlinearEncoder::new(BaseHypervectors::from_matrix(Matrix::from_vec(
        features, dim, base,
    )?));
    let class_hvs = ClassHypervectors::from_matrix(Matrix::from_vec(dim, classes, class_data)?);
    HdcModel::from_parts(encoder, class_hvs)
}

/// Writes a model to a file.
///
/// # Errors
///
/// Returns any I/O error from the filesystem.
pub fn save_model(model: &HdcModel, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, write_model(model))
}

/// Reads a model from a file.
///
/// # Errors
///
/// Returns I/O errors as `io::Error` and container errors as
/// `io::ErrorKind::InvalidData`.
pub fn load_model(path: impl AsRef<std::path::Path>) -> std::io::Result<HdcModel> {
    let data = std::fs::read(path)?;
    read_model(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainConfig;
    use hd_tensor::rng::DetRng;

    fn trained() -> HdcModel {
        let mut rng = DetRng::new(51);
        let mut features = Matrix::random_normal(30, 8, &mut rng);
        let labels: Vec<usize> = (0..30).map(|i| i % 3).collect();
        for (i, &l) in labels.iter().enumerate() {
            features.row_mut(i)[l] += 2.0;
        }
        let config = TrainConfig::new(128).with_iterations(4);
        HdcModel::fit(&features, &labels, 3, &config).unwrap().0
    }

    #[test]
    fn roundtrip_is_exact() {
        let model = trained();
        let restored = read_model(&write_model(&model)).unwrap();
        assert_eq!(restored, model);
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let model = trained();
        let mut rng = DetRng::new(52);
        let probe = Matrix::random_normal(10, 8, &mut rng);
        let restored = read_model(&write_model(&model)).unwrap();
        assert_eq!(
            model.predict(&probe).unwrap(),
            restored.predict(&probe).unwrap()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let model = trained();
        let mut blob = write_model(&model).to_vec();
        blob[0] = b'Z';
        assert!(read_model(&blob).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let model = trained();
        let mut blob = write_model(&model).to_vec();
        blob[4] = 77;
        assert!(read_model(&blob).is_err());
    }

    #[test]
    fn bad_similarity_tag_rejected() {
        let model = trained();
        let mut blob = write_model(&model).to_vec();
        assert_eq!(blob[20], 0, "writer emits the dot tag");
        // 9 was never a tag; 1 is the retired cosine tag.
        for tag in [9, 1] {
            blob[20] = tag; // similarity byte (after 4+4+4+4+4)
            assert_eq!(
                read_model(&blob).unwrap_err(),
                HdcError::InvalidConfig("unknown similarity tag"),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn truncation_rejected_at_every_section() {
        let model = trained();
        let blob = write_model(&model);
        for len in [0usize, 10, 21, 100, blob.len() - 1] {
            assert!(read_model(&blob[..len]).is_err(), "prefix {len} parsed");
        }
    }

    #[test]
    fn file_roundtrip() {
        let model = trained();
        let dir = std::env::temp_dir().join("hyperedge-hdm-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.hdm");
        save_model(&model, &path).unwrap();
        let restored = load_model(&path).unwrap();
        assert_eq!(restored, model);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_model_surfaces_invalid_data() {
        let dir = std::env::temp_dir().join("hyperedge-hdm-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.hdm");
        std::fs::write(&path, b"not a model").unwrap();
        let err = load_model(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
