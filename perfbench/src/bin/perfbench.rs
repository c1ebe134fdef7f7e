//! Untraced runs: end-to-end metrics on the system allocator.

fn main() -> std::process::ExitCode {
    rabit_perfbench::main(false)
}
