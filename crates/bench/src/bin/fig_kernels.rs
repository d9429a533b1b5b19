//! Wall-clock microbenchmarks of the packed bipolar and SIMD `i8` host
//! kernels against their scalar references (each pinned bit-exact before
//! timing), and writes the machine-readable `BENCH_kernels.json`
//! baseline at the repository root. See
//! `hd_bench::experiments::fig_kernels_report`.

fn main() {
    let (table, record) = hd_bench::experiments::fig_kernels_report();
    hd_bench::report::emit(&table, &record);
}
