//! The traced benchmark: per-layer metrics, with allocations counted.

#[global_allocator]
static ALLOC: perfbench::alloc::Counting = perfbench::alloc::Counting;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
