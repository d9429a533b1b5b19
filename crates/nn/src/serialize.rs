//! Compact binary container formats for float and quantized models.
//!
//! This is HyperEdge's stand-in for the TFLite flatbuffer: the framework
//! "generates TFLite model files and compiles those files for Edge TPU"
//! (paper, Section IV-B) — here, [`write_model`] produces a `.wnn` blob
//! and [`write_quantized_model`] a `.wnq` blob, and the cost of doing so
//! is charged to the *model generation* phase of the training-runtime
//! breakdown, exactly like the paper's Fig. 5.
//!
//! Layout (all little-endian):
//!
//! ```text
//! WNN1 | u32 version | u32 input_dim | u32 layer_count | layers...
//!   layer: u8 tag
//!     0 = fully-connected: u32 rows | u32 cols | f32 data...
//!     1 = activation:      u8 kind (0 tanh, 1 relu, 2 identity)
//!     2 = elementwise:     u8 op (0 add, 1 sub) | f32 lambda
//!
//! WNQ1 | u32 version | u32 input_dim | u32 output_dim | qparams(input)
//!      | u32 stage_count | stages...
//!   qparams: f32 scale | i32 zero_point
//!   stage: u8 tag
//!     0 = fully-connected: u32 rows | u32 cols | qparams(weights)
//!         | qparams(out) | i8 data...
//!     1 = lut:             qparams(in) | qparams(out) | 256 x i8
//!     2 = fully-connected, per-channel: u32 rows | u32 cols
//!         | qparams(out) | f32 x cols scales | i8 data...
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use hd_quant::lut::ActivationLut;
use hd_quant::per_channel::ChannelQuantizedMatrix;
use hd_quant::{PackedQuantizedMatrix, QuantError, QuantParams};
use hd_tensor::Matrix;

use crate::error::NnError;
use crate::layer::{Activation, ElementwiseOp, Layer};
use crate::model::Model;
use crate::quantized::{QuantStage, QuantizedModel};
use crate::Result;

const FLOAT_MAGIC: &[u8; 4] = b"WNN1";
const QUANT_MAGIC: &[u8; 4] = b"WNQ1";
const VERSION: u32 = 1;

/// Serializes a float model to its binary container.
///
/// # Examples
///
/// ```
/// use hd_tensor::Matrix;
/// use wide_nn::{serialize, Activation, ModelBuilder};
///
/// # fn main() -> Result<(), wide_nn::NnError> {
/// let model = ModelBuilder::new(2)
///     .fully_connected(Matrix::identity(2))?
///     .activation(Activation::Tanh)
///     .build()?;
/// let blob = serialize::write_model(&model);
/// let restored = serialize::read_model(&blob)?;
/// assert_eq!(restored, model);
/// # Ok(())
/// # }
/// ```
pub fn write_model(model: &Model) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(FLOAT_MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(model.input_dim() as u32);
    buf.put_u32_le(model.layers().len() as u32);
    for layer in model.layers() {
        match layer {
            Layer::FullyConnected { weights } => {
                buf.put_u8(0);
                buf.put_u32_le(weights.rows() as u32);
                buf.put_u32_le(weights.cols() as u32);
                for &v in weights.iter() {
                    buf.put_f32_le(v);
                }
            }
            Layer::Activation(act) => {
                buf.put_u8(1);
                buf.put_u8(match act {
                    Activation::Tanh => 0,
                    Activation::Relu => 1,
                    Activation::Identity => 2,
                });
            }
            Layer::Elementwise { op, lambda } => {
                buf.put_u8(2);
                buf.put_u8(match op {
                    ElementwiseOp::ScaledAdd => 0,
                    ElementwiseOp::ScaledSub => 1,
                });
                buf.put_f32_le(*lambda);
            }
        }
    }
    buf.freeze()
}

fn need(buf: &impl Buf, bytes: usize, what: &str) -> Result<()> {
    if buf.remaining() < bytes {
        return Err(NnError::Serialization(format!(
            "truncated input: need {bytes} more bytes for {what}"
        )));
    }
    Ok(())
}

/// Checked `rows * cols * elem_size`, rejecting dimension fields whose
/// product overflows (a corrupted container must not trigger a huge or
/// overflowing allocation).
fn checked_len(rows: usize, cols: usize, elem_size: usize, what: &str) -> Result<usize> {
    rows.checked_mul(cols)
        .and_then(|n| n.checked_mul(elem_size))
        .ok_or_else(|| NnError::Serialization(format!("{what} dimensions overflow: {rows}x{cols}")))
}

/// Deserializes a float model written by [`write_model`].
///
/// # Errors
///
/// Returns [`NnError::Serialization`] on bad magic, version, tags, or
/// truncation, and shape-inference errors if the stored layers are
/// inconsistent.
pub fn read_model(data: &[u8]) -> Result<Model> {
    let mut buf = data;
    need(&buf, 12, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != FLOAT_MAGIC {
        return Err(NnError::Serialization(format!(
            "bad magic {magic:?}, expected {FLOAT_MAGIC:?}"
        )));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(NnError::Serialization(format!(
            "unsupported version {version}"
        )));
    }
    let input_dim = buf.get_u32_le() as usize;
    need(&buf, 4, "layer count")?;
    let layer_count = buf.get_u32_le() as usize;
    let mut layers = Vec::with_capacity(layer_count);
    for i in 0..layer_count {
        need(&buf, 1, "layer tag")?;
        match buf.get_u8() {
            0 => {
                need(&buf, 8, "fc dims")?;
                let rows = buf.get_u32_le() as usize;
                let cols = buf.get_u32_le() as usize;
                let byte_len = checked_len(rows, cols, 4, "fc weights")?;
                need(&buf, byte_len, "fc weights")?;
                let mut data = Vec::with_capacity(rows * cols);
                for _ in 0..rows * cols {
                    data.push(buf.get_f32_le());
                }
                layers.push(Layer::FullyConnected {
                    weights: Matrix::from_vec(rows, cols, data)?,
                });
            }
            1 => {
                need(&buf, 1, "activation kind")?;
                let act = match buf.get_u8() {
                    0 => Activation::Tanh,
                    1 => Activation::Relu,
                    2 => Activation::Identity,
                    k => {
                        return Err(NnError::Serialization(format!(
                            "unknown activation kind {k} in layer {i}"
                        )))
                    }
                };
                layers.push(Layer::Activation(act));
            }
            2 => {
                need(&buf, 5, "elementwise body")?;
                let op = match buf.get_u8() {
                    0 => ElementwiseOp::ScaledAdd,
                    1 => ElementwiseOp::ScaledSub,
                    k => {
                        return Err(NnError::Serialization(format!(
                            "unknown elementwise op {k} in layer {i}"
                        )))
                    }
                };
                let lambda = buf.get_f32_le();
                layers.push(Layer::Elementwise { op, lambda });
            }
            tag => {
                return Err(NnError::Serialization(format!(
                    "unknown layer tag {tag} at layer {i}"
                )))
            }
        }
    }
    Model::new(input_dim, layers)
}

fn put_qparams(buf: &mut BytesMut, p: QuantParams) {
    buf.put_f32_le(p.scale());
    buf.put_i32_le(p.zero_point());
}

fn get_qparams(buf: &mut &[u8]) -> Result<QuantParams> {
    need(buf, 8, "quant params")?;
    let scale = buf.get_f32_le();
    let zp = buf.get_i32_le();
    QuantParams::from_raw(scale, zp).map_err(NnError::from)
}

/// Writes a `rows x cols` weight matrix's values in row-major order.
fn put_weights(
    buf: &mut BytesMut,
    (rows, cols): (usize, usize),
    value: impl Fn(usize, usize) -> i8,
) {
    for r in 0..rows {
        for c in 0..cols {
            buf.put_i8(value(r, c));
        }
    }
}

/// Reads `len` weight values, row-major; the caller checked they are
/// there.
fn get_weights(buf: &mut &[u8], len: usize) -> Vec<i8> {
    let (values, rest) = buf.split_at(len);
    *buf = rest;
    values.iter().map(|&b| b as i8).collect()
}

/// Serializes a quantized model to its binary container.
pub fn write_quantized_model(model: &QuantizedModel) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(QUANT_MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(model.input_dim() as u32);
    buf.put_u32_le(model.output_dim() as u32);
    put_qparams(&mut buf, model.input_params());
    buf.put_u32_le(model.stages().len() as u32);
    for stage in model.stages() {
        match stage {
            QuantStage::FullyConnected {
                weights,
                out_params,
            } => {
                buf.put_u8(0);
                buf.put_u32_le(weights.rows() as u32);
                buf.put_u32_le(weights.cols() as u32);
                put_qparams(&mut buf, weights.params());
                put_qparams(&mut buf, *out_params);
                put_weights(&mut buf, weights.shape(), |r, c| weights.get(r, c));
            }
            QuantStage::FullyConnectedPerChannel {
                weights,
                out_params,
            } => {
                buf.put_u8(2);
                buf.put_u32_le(weights.rows() as u32);
                buf.put_u32_le(weights.cols() as u32);
                put_qparams(&mut buf, *out_params);
                for &scale in weights.scales() {
                    buf.put_f32_le(scale);
                }
                put_weights(&mut buf, (weights.rows(), weights.cols()), |r, c| {
                    weights.get(r, c)
                });
            }
            QuantStage::Lut(lut) => {
                buf.put_u8(1);
                put_qparams(&mut buf, lut.input_params());
                put_qparams(&mut buf, lut.output_params());
                for &q in lut.table() {
                    buf.put_i8(q);
                }
            }
        }
    }
    buf.freeze()
}

/// Deserializes a quantized model written by [`write_quantized_model`].
///
/// # Errors
///
/// Returns [`NnError::Serialization`] on bad magic, version, tags, or
/// truncation.
pub fn read_quantized_model(data: &[u8]) -> Result<QuantizedModel> {
    let mut buf = data;
    need(&buf, 12, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != QUANT_MAGIC {
        return Err(NnError::Serialization(format!(
            "bad magic {magic:?}, expected {QUANT_MAGIC:?}"
        )));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(NnError::Serialization(format!(
            "unsupported version {version}"
        )));
    }
    let input_dim = buf.get_u32_le() as usize;
    need(&buf, 4, "output dim")?;
    let output_dim = buf.get_u32_le() as usize;
    let input_params = get_qparams(&mut buf)?;
    need(&buf, 4, "stage count")?;
    let stage_count = buf.get_u32_le() as usize;
    let mut stages = Vec::with_capacity(stage_count);
    for i in 0..stage_count {
        need(&buf, 1, "stage tag")?;
        match buf.get_u8() {
            0 => {
                need(&buf, 8, "fc dims")?;
                let rows = buf.get_u32_le() as usize;
                let cols = buf.get_u32_le() as usize;
                let wparams = get_qparams(&mut buf)?;
                let out_params = get_qparams(&mut buf)?;
                let byte_len = checked_len(rows, cols, 1, "fc weights")?;
                need(&buf, byte_len, "fc weights")?;
                let data = get_weights(&mut buf, byte_len);
                stages.push(QuantStage::FullyConnected {
                    weights: PackedQuantizedMatrix::from_raw(rows, cols, &data, wparams),
                    out_params,
                });
            }
            1 => {
                let in_params = get_qparams(&mut buf)?;
                let out_params = get_qparams(&mut buf)?;
                need(&buf, 256, "lut table")?;
                let mut table = Vec::with_capacity(256);
                for _ in 0..256 {
                    table.push(buf.get_i8());
                }
                stages.push(QuantStage::Lut(ActivationLut::from_parts(
                    table, in_params, out_params,
                )));
            }
            2 => {
                need(&buf, 8, "per-channel fc dims")?;
                let rows = buf.get_u32_le() as usize;
                let cols = buf.get_u32_le() as usize;
                let out_params = get_qparams(&mut buf)?;
                let scale_bytes = checked_len(cols, 1, 4, "per-channel scales")?;
                need(&buf, scale_bytes, "per-channel scales")?;
                let mut scales = Vec::with_capacity(cols);
                for _ in 0..cols {
                    scales.push(buf.get_f32_le());
                }
                let byte_len = checked_len(rows, cols, 1, "per-channel weights")?;
                need(&buf, byte_len, "per-channel weights")?;
                let data = get_weights(&mut buf, byte_len);
                let weights = ChannelQuantizedMatrix::from_parts(rows, cols, &data, scales)
                    .map_err(|e| match e {
                        QuantError::InvalidScale { scale } => NnError::Serialization(format!(
                            "invalid per-channel scale {scale} in stage {i}"
                        )),
                        e => NnError::from(e),
                    })?;
                stages.push(QuantStage::FullyConnectedPerChannel {
                    weights,
                    out_params,
                });
            }
            tag => {
                return Err(NnError::Serialization(format!(
                    "unknown stage tag {tag} at stage {i}"
                )))
            }
        }
    }
    QuantizedModel::from_parts(input_dim, output_dim, input_params, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use hd_tensor::rng::DetRng;

    fn sample_model() -> Model {
        let mut rng = DetRng::new(21);
        ModelBuilder::new(6)
            .fully_connected(Matrix::random_normal(6, 24, &mut rng))
            .unwrap()
            .activation(Activation::Tanh)
            .fully_connected(Matrix::random_normal(24, 3, &mut rng))
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn float_roundtrip_is_exact() {
        let model = sample_model();
        let blob = write_model(&model);
        let restored = read_model(&blob).unwrap();
        assert_eq!(restored, model);
    }

    #[test]
    fn float_roundtrip_with_elementwise_layer() {
        let model = ModelBuilder::new(3)
            .elementwise(ElementwiseOp::ScaledSub, 0.25)
            .build()
            .unwrap();
        let restored = read_model(&write_model(&model)).unwrap();
        assert_eq!(restored, model);
    }

    #[test]
    fn quantized_roundtrip_is_exact() {
        let model = sample_model();
        let mut rng = DetRng::new(22);
        let calib = Matrix::random_normal(32, 6, &mut rng);
        let qmodel = QuantizedModel::quantize(&model, &calib).unwrap();
        let blob = write_quantized_model(&qmodel);
        let restored = read_quantized_model(&blob).unwrap();
        assert_eq!(restored, qmodel);
        // Behavioural equality too.
        let a = qmodel.forward(&calib).unwrap();
        let b = restored.forward(&calib).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn per_channel_quantized_roundtrip_preserves_behaviour() {
        let model = sample_model();
        let mut rng = DetRng::new(23);
        let calib = Matrix::random_normal(16, 6, &mut rng);
        let qmodel = QuantizedModel::quantize_per_channel(&model, &calib).unwrap();
        let blob = write_quantized_model(&qmodel);
        let restored = read_quantized_model(&blob).unwrap();
        assert_eq!(restored, qmodel);
    }

    #[test]
    fn per_channel_scale_must_be_finite_and_positive() {
        let model = sample_model();
        let calib = Matrix::random_normal(16, 6, &mut DetRng::new(23));
        let qmodel = QuantizedModel::quantize_per_channel(&model, &calib).unwrap();
        let blob = write_quantized_model(&qmodel).to_vec();
        // Header (28 bytes), then the first stage's tag, dims and output
        // parameters (17 bytes), then its first scale.
        let first_scale = 28 + 17;
        for bad in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            let mut corrupt = blob.clone();
            corrupt[first_scale..first_scale + 4].copy_from_slice(&bad.to_le_bytes());
            match read_quantized_model(&corrupt) {
                Err(NnError::Serialization(msg)) => {
                    assert_eq!(msg, format!("invalid per-channel scale {bad} in stage 0"));
                }
                other => panic!("scale {bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn per_channel_subnormal_column_roundtrips() {
        // `1e-44 / 127` underflows to zero; the scale must stay one that
        // the reader accepts.
        let model = ModelBuilder::new(2)
            .fully_connected(Matrix::from_rows(&[&[1e-44, 1.0], &[0.0, -0.5]]).unwrap())
            .unwrap()
            .build()
            .unwrap();
        let calib = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 0.25]]).unwrap();
        let qmodel = QuantizedModel::quantize_per_channel(&model, &calib).unwrap();
        let restored = read_quantized_model(&write_quantized_model(&qmodel)).unwrap();
        assert_eq!(restored, qmodel);
    }

    #[test]
    fn bad_magic_rejected() {
        let model = sample_model();
        let mut blob = write_model(&model).to_vec();
        blob[0] = b'X';
        assert!(matches!(
            read_model(&blob).unwrap_err(),
            NnError::Serialization(_)
        ));
    }

    #[test]
    fn wrong_container_kind_rejected() {
        let model = sample_model();
        let blob = write_model(&model);
        assert!(read_quantized_model(&blob).is_err());
    }

    #[test]
    fn truncated_input_rejected_everywhere() {
        let model = sample_model();
        let blob = write_model(&model);
        // Chop at a sample of prefix lengths; every one must fail cleanly.
        for len in [0, 3, 4, 11, 13, 20, blob.len() - 1] {
            assert!(
                read_model(&blob[..len]).is_err(),
                "prefix of {len} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let model = sample_model();
        let mut blob = write_model(&model).to_vec();
        blob[16] = 9; // first layer tag (after the 16-byte header)
        assert!(matches!(
            read_model(&blob).unwrap_err(),
            NnError::Serialization(msg) if msg.contains("unknown layer tag")
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let model = sample_model();
        let mut blob = write_model(&model).to_vec();
        blob[4] = 99;
        assert!(read_model(&blob).is_err());
    }

    #[test]
    fn blob_size_is_close_to_param_bytes() {
        let model = sample_model();
        let blob = write_model(&model);
        // 4 bytes per float parameter plus a small header.
        let params = model.param_count() * 4;
        assert!(blob.len() >= params);
        assert!(blob.len() < params + 128);
    }
}
