//! Measures the pipelined execution schedules (overlapped DMA/compute on
//! the simulated device, parallel bagged member training on the host) and
//! writes the machine-readable `BENCH_pipeline.json` baseline at the
//! repository root. See `hd_bench::experiments::fig_pipeline_report`.

fn main() {
    let (table, record) = hd_bench::experiments::fig_pipeline_report();
    hd_bench::report::emit(&table, &record);
}
