//! Machine-readable benchmark reports for CI perf-regression gating.
//!
//! CSV tables under `results/` are for humans and plots; the
//! `BENCH_<name>.json` artifacts written at the repository root are for
//! machines — CI reruns a benchmark binary and compares the fresh numbers
//! against the committed baseline, failing only on clear regressions.
//! The workspace's `serde` facade is a derive-only shim, so the JSON is
//! rendered by hand with a fixed, flat key set that line-oriented tools
//! (`grep`/`awk` in CI) can parse without a JSON library.

use std::path::{Path, PathBuf};

/// Measurements of one `fig_pipeline` run: the simulated-clock gain of
/// the overlapped DMA/compute invoke schedule on a transfer-bound encode
/// workload, and the wall-clock gain of training bagged members on
/// parallel host threads.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineBenchReport {
    /// Simulated seconds for the same chunked invocations with their
    /// legs run back to back.
    pub simulated_serial_s: f64,
    /// Simulated seconds for the double-buffered pipelined schedule.
    pub simulated_pipelined_s: f64,
    /// `simulated_serial_s / simulated_pipelined_s`.
    pub simulated_speedup: f64,
    /// Wall-clock seconds training the bagged members sequentially.
    pub wall_sequential_s: f64,
    /// Wall-clock seconds training the same members on worker threads.
    pub wall_parallel_s: f64,
    /// `wall_sequential_s / wall_parallel_s`.
    pub wall_speedup: f64,
    /// Worker threads used by the parallel run.
    pub threads: usize,
    /// Whether the run was at `HD_BENCH_SMOKE` scale.
    pub smoke: bool,
}

impl PipelineBenchReport {
    /// Renders the flat JSON form. `git_describe` is always `null`: the
    /// artifact is committed alongside the code it measured, so the
    /// revision is the commit itself and the harness never shells out.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"pipeline\",\n  \"git_describe\": null,\n  \"smoke\": {},\n  \"threads\": {},\n  \"simulated_serial_s\": {:.9},\n  \"simulated_pipelined_s\": {:.9},\n  \"simulated_speedup\": {:.4},\n  \"wall_sequential_s\": {:.6},\n  \"wall_parallel_s\": {:.6},\n  \"wall_speedup\": {:.4}\n}}\n",
            self.smoke,
            self.threads,
            self.simulated_serial_s,
            self.simulated_pipelined_s,
            self.simulated_speedup,
            self.wall_sequential_s,
            self.wall_parallel_s,
            self.wall_speedup,
        )
    }
}

/// Measurements of one `fig_schedule` run: for every production SDF
/// graph, the analyzer's predicted critical path against the elapsed
/// time the generic runtime actually measures executing that same
/// declaration, plus the simulated gain of the two-device serving
/// schedule over running both devices back to back.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleBenchReport {
    /// Analyzer-predicted seconds for the overlapped-invoke graph.
    pub overlapped_invoke_predicted_s: f64,
    /// Runtime-measured seconds executing the overlapped-invoke graph.
    pub overlapped_invoke_measured_s: f64,
    /// Predicted seconds for the streamed encode→train graph.
    pub streamed_encode_predicted_s: f64,
    /// Runtime-measured seconds for the streamed encode→train graph.
    pub streamed_encode_measured_s: f64,
    /// Predicted seconds for the parallel-members graph.
    pub parallel_members_predicted_s: f64,
    /// Runtime-measured seconds for the parallel-members graph.
    pub parallel_members_measured_s: f64,
    /// Predicted seconds for the two-device serve graph.
    pub two_device_predicted_s: f64,
    /// Runtime-measured seconds for the two-device serve graph.
    pub two_device_measured_s: f64,
    /// Largest |measured − predicted| across the four schedules.
    pub max_abs_delta_s: f64,
    /// Simulated seconds serving the batch with both devices serialized.
    pub serve_serial_s: f64,
    /// Simulated seconds for the pipelined two-device serve.
    pub serve_pipelined_s: f64,
    /// `serve_serial_s / serve_pipelined_s`.
    pub serve_speedup: f64,
    /// Whether the run was at `HD_BENCH_SMOKE` scale.
    pub smoke: bool,
}

impl ScheduleBenchReport {
    /// Renders the flat JSON form (same conventions as
    /// [`PipelineBenchReport::to_json`]: one key per line, no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"schedule\",\n  \"git_describe\": null,\n  \"smoke\": {},\n  \"overlapped_invoke_predicted_s\": {:.12},\n  \"overlapped_invoke_measured_s\": {:.12},\n  \"streamed_encode_predicted_s\": {:.12},\n  \"streamed_encode_measured_s\": {:.12},\n  \"parallel_members_predicted_s\": {:.12},\n  \"parallel_members_measured_s\": {:.12},\n  \"two_device_predicted_s\": {:.12},\n  \"two_device_measured_s\": {:.12},\n  \"max_abs_delta_s\": {:.15},\n  \"serve_serial_s\": {:.9},\n  \"serve_pipelined_s\": {:.9},\n  \"serve_speedup\": {:.4}\n}}\n",
            self.smoke,
            self.overlapped_invoke_predicted_s,
            self.overlapped_invoke_measured_s,
            self.streamed_encode_predicted_s,
            self.streamed_encode_measured_s,
            self.parallel_members_predicted_s,
            self.parallel_members_measured_s,
            self.two_device_predicted_s,
            self.two_device_measured_s,
            self.max_abs_delta_s,
            self.serve_serial_s,
            self.serve_pipelined_s,
            self.serve_speedup,
        )
    }
}

/// Measurements of one `fig_resilience` run: recovered throughput of
/// the supervised two-device server under seeded fault injection, as a
/// function of the injected fault rate, plus the failover machinery's
/// overhead on the fault-free path. Every run in the sweep must return
/// predictions bit-exact with the fault-free reference (asserted inside
/// the bench), so "recovered" throughput is the honest kind: the rows
/// all came back correct, faults only cost time.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceBenchReport {
    /// Rows served per run.
    pub rows: usize,
    /// Analyzer-predicted fault-free serve seconds (declared schedule).
    pub predicted_s: f64,
    /// Measured seconds for the supervised fault-free serve.
    pub supervised_clean_s: f64,
    /// `supervised_clean_s / predicted_s` — the supervision layer's
    /// fault-free overhead (the failover win must be ~free when nothing
    /// fails).
    pub zero_fault_overhead: f64,
    /// Recovered throughput (rows/simulated-second, retries and backoff
    /// charged) at 0% injected faults.
    pub throughput_clean: f64,
    /// Recovered throughput at a 2% transient-fault rate.
    pub throughput_2pct: f64,
    /// Recovered throughput at a 10% transient-fault rate.
    pub throughput_10pct: f64,
    /// Recovered throughput at a 30% transient-fault rate.
    pub throughput_30pct: f64,
    /// `min(throughput_at_rate) / throughput_clean` over the sweep.
    pub min_recovered_frac: f64,
    /// Total supervised faults observed across the faulted runs
    /// (evidence the injection actually fired).
    pub total_faults: u64,
    /// Whether the run was at `HD_BENCH_SMOKE` scale.
    pub smoke: bool,
}

impl ResilienceBenchReport {
    /// Renders the flat JSON form (same conventions as
    /// [`PipelineBenchReport::to_json`]: one key per line, no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"resilience\",\n  \"git_describe\": null,\n  \"smoke\": {},\n  \"rows\": {},\n  \"predicted_s\": {:.12},\n  \"supervised_clean_s\": {:.12},\n  \"zero_fault_overhead\": {:.6},\n  \"throughput_clean\": {:.3},\n  \"throughput_2pct\": {:.3},\n  \"throughput_10pct\": {:.3},\n  \"throughput_30pct\": {:.3},\n  \"min_recovered_frac\": {:.6},\n  \"total_faults\": {}\n}}\n",
            self.smoke,
            self.rows,
            self.predicted_s,
            self.supervised_clean_s,
            self.zero_fault_overhead,
            self.throughput_clean,
            self.throughput_2pct,
            self.throughput_10pct,
            self.throughput_30pct,
            self.min_recovered_frac,
            self.total_faults,
        )
    }
}

/// Machine-readable baseline for the `fig_kernels` host-kernel
/// microbenchmarks, written to `BENCH_kernels.json` at the repository
/// root and regression-gated in CI.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelsBenchReport {
    /// Hypervector dimensionality of the scoring and bundling runs.
    pub dim: usize,
    /// Query rows scored per run.
    pub rows: usize,
    /// Class hypervectors scored against.
    pub classes: usize,
    /// Best-of-3 wall-clock seconds for packed XOR+popcount batch
    /// scoring (`PackedClassHypervectors::predict_batch`).
    pub packed_score_s: f64,
    /// Best-of-3 wall-clock seconds for the former `f32` GEMM + argmax
    /// scoring path over the same queries.
    pub scalar_score_s: f64,
    /// `scalar_score_s / packed_score_s`.
    pub packed_speedup: f64,
    /// `i8` GEMM shape (rows of A).
    pub gemm_m: usize,
    /// `i8` GEMM shape (inner dimension).
    pub gemm_k: usize,
    /// `i8` GEMM shape (columns of B).
    pub gemm_n: usize,
    /// Best-of-3 wall-clock seconds for the dispatched `i8` GEMM.
    pub simd_gemm_s: f64,
    /// Best-of-3 wall-clock seconds for the naive triple-loop reference.
    pub naive_gemm_s: f64,
    /// Dispatched-kernel throughput in GOP/s (2·m·k·n ops).
    pub simd_gemm_gops: f64,
    /// Reference throughput in GOP/s.
    pub naive_gemm_gops: f64,
    /// `naive_gemm_s / simd_gemm_s`.
    pub gemm_speedup: f64,
    /// The `i8` GEMM kernel the dispatcher selected ("avx2"/"portable").
    pub i8_kernel: String,
    /// Vectors per majority bundle.
    pub bundle_vectors: usize,
    /// Best-of-3 wall-clock seconds for one vertical-counter majority
    /// bundle over `bundle_vectors` packed vectors.
    pub bundle_s: f64,
    /// Bundling input bandwidth in GiB/s (packed words consumed).
    pub bundle_gib_s: f64,
    /// Whether the run was at `HD_BENCH_SMOKE` scale.
    pub smoke: bool,
}

impl KernelsBenchReport {
    /// Renders the flat JSON form (same conventions as
    /// [`PipelineBenchReport::to_json`]: one key per line, no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"kernels\",\n  \"git_describe\": null,\n  \"smoke\": {},\n  \"dim\": {},\n  \"rows\": {},\n  \"classes\": {},\n  \"packed_score_s\": {:.12},\n  \"scalar_score_s\": {:.12},\n  \"packed_speedup\": {:.3},\n  \"gemm_m\": {},\n  \"gemm_k\": {},\n  \"gemm_n\": {},\n  \"simd_gemm_s\": {:.12},\n  \"naive_gemm_s\": {:.12},\n  \"simd_gemm_gops\": {:.3},\n  \"naive_gemm_gops\": {:.3},\n  \"gemm_speedup\": {:.3},\n  \"i8_kernel\": \"{}\",\n  \"bundle_vectors\": {},\n  \"bundle_s\": {:.12},\n  \"bundle_gib_s\": {:.3}\n}}\n",
            self.smoke,
            self.dim,
            self.rows,
            self.classes,
            self.packed_score_s,
            self.scalar_score_s,
            self.packed_speedup,
            self.gemm_m,
            self.gemm_k,
            self.gemm_n,
            self.simd_gemm_s,
            self.naive_gemm_s,
            self.simd_gemm_gops,
            self.naive_gemm_gops,
            self.gemm_speedup,
            self.i8_kernel,
            self.bundle_vectors,
            self.bundle_s,
            self.bundle_gib_s,
        )
    }
}

/// Repository-root path of the `BENCH_<name>.json` artifact.
#[must_use]
pub fn bench_report_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(format!("BENCH_{name}.json"))
}

/// Writes `json` to the repository-root `BENCH_<name>.json` artifact and
/// returns the path written.
///
/// # Errors
///
/// Propagates the filesystem error if the root is not writable.
pub fn write_bench_report(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let path = bench_report_path(name);
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineBenchReport {
        PipelineBenchReport {
            simulated_serial_s: 0.012,
            simulated_pipelined_s: 0.008,
            simulated_speedup: 1.5,
            wall_sequential_s: 0.2,
            wall_parallel_s: 0.1,
            wall_speedup: 2.0,
            threads: 2,
            smoke: true,
        }
    }

    #[test]
    fn json_is_flat_and_line_parsable() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        for key in [
            "\"bench\": \"pipeline\"",
            "\"git_describe\": null",
            "\"smoke\": true",
            "\"threads\": 2",
            "\"simulated_speedup\": 1.5000",
            "\"wall_speedup\": 2.0000",
        ] {
            assert!(json.contains(key), "missing `{key}` in\n{json}");
        }
        // One key per line so CI can grep values without a JSON parser.
        assert_eq!(json.lines().count(), 12);
    }

    #[test]
    fn report_path_lands_at_repo_root() {
        let path = bench_report_path("pipeline");
        assert!(path.ends_with("../../BENCH_pipeline.json"));
    }

    #[test]
    fn resilience_json_is_flat_and_line_parsable() {
        let json = ResilienceBenchReport {
            rows: 96,
            predicted_s: 0.008,
            supervised_clean_s: 0.008,
            zero_fault_overhead: 1.0,
            throughput_clean: 12000.0,
            throughput_2pct: 11000.0,
            throughput_10pct: 9000.0,
            throughput_30pct: 6000.0,
            min_recovered_frac: 0.5,
            total_faults: 7,
            smoke: true,
        }
        .to_json();
        for key in [
            "\"bench\": \"resilience\"",
            "\"git_describe\": null",
            "\"smoke\": true",
            "\"zero_fault_overhead\": 1.000000",
            "\"min_recovered_frac\": 0.500000",
            "\"total_faults\": 7",
        ] {
            assert!(json.contains(key), "missing `{key}` in\n{json}");
        }
        assert_eq!(json.lines().count(), 15);
    }

    #[test]
    fn kernels_json_is_flat_and_line_parsable() {
        let json = KernelsBenchReport {
            dim: 7680,
            rows: 256,
            classes: 26,
            packed_score_s: 0.001,
            scalar_score_s: 0.02,
            packed_speedup: 20.0,
            gemm_m: 128,
            gemm_k: 256,
            gemm_n: 7680,
            simd_gemm_s: 0.005,
            naive_gemm_s: 0.05,
            simd_gemm_gops: 100.0,
            naive_gemm_gops: 10.0,
            gemm_speedup: 10.0,
            i8_kernel: "avx2".to_string(),
            bundle_vectors: 33,
            bundle_s: 0.0001,
            bundle_gib_s: 3.0,
            smoke: true,
        }
        .to_json();
        for key in [
            "\"bench\": \"kernels\"",
            "\"git_describe\": null",
            "\"smoke\": true",
            "\"packed_speedup\": 20.000",
            "\"gemm_speedup\": 10.000",
            "\"i8_kernel\": \"avx2\"",
            "\"bundle_gib_s\": 3.000",
        ] {
            assert!(json.contains(key), "missing `{key}` in\n{json}");
        }
        assert_eq!(json.lines().count(), 23);
    }

    #[test]
    fn schedule_json_is_flat_and_line_parsable() {
        let json = ScheduleBenchReport {
            overlapped_invoke_predicted_s: 0.009,
            overlapped_invoke_measured_s: 0.009,
            streamed_encode_predicted_s: 0.004,
            streamed_encode_measured_s: 0.004,
            parallel_members_predicted_s: 0.9,
            parallel_members_measured_s: 0.9,
            two_device_predicted_s: 0.002,
            two_device_measured_s: 0.002,
            max_abs_delta_s: 0.0,
            serve_serial_s: 0.004,
            serve_pipelined_s: 0.0025,
            serve_speedup: 1.6,
            smoke: true,
        }
        .to_json();
        for key in [
            "\"bench\": \"schedule\"",
            "\"git_describe\": null",
            "\"smoke\": true",
            "\"max_abs_delta_s\": 0.000000000000000",
            "\"serve_speedup\": 1.6000",
        ] {
            assert!(json.contains(key), "missing `{key}` in\n{json}");
        }
        assert_eq!(json.lines().count(), 17);
    }
}
