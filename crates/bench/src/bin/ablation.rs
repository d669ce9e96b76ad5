//! Runs the design-choice ablations (reduced vs full completion
//! detection, C-element input latches).
//!
//! Usage: `cargo run -p tm-async-bench --release --bin ablation [operands]`

use tm_async_bench::args::{or_exit, positional};

const USAGE: &str = "usage: ablation [operands]";

fn main() {
    let operands = or_exit(
        positional(std::env::args().nth(1), "operands", 30, 1),
        USAGE,
    );
    println!("Experiment E4 — ablations ({operands} operands per variant)\n");
    let ablation = tm_async_bench::ablation::run(operands, 2021);
    print!("{}", ablation.render());
}
