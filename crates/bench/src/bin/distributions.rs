//! Regenerates the operand and delay probability distribution analysis
//! (the paper's second contribution).
//!
//! Usage: `cargo run -p tm-async-bench --release --bin distributions [operands]`

use tm_async_bench::args::{or_exit, positional};

const USAGE: &str = "usage: distributions [operands]";

fn main() {
    let operands = or_exit(
        positional(std::env::args().nth(1), "operands", 60, 1),
        USAGE,
    );
    println!(
        "Experiment E3 — operand and delay distributions ({operands} operands per workload)\n"
    );
    let result = tm_async_bench::distributions::run(operands, 2021);
    print!("{}", result.render());
}
