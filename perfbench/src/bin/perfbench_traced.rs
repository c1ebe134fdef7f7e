//! Traced runs: per-layer metrics, with allocations counted per thread.

use rabit_perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    rabit_perfbench::main(true)
}
