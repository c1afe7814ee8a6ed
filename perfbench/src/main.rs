//! The untraced benchmark: end-to-end metrics.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
