//! Regenerates Table I of the paper (single-rail vs dual-rail on the two
//! library models).
//!
//! Usage: `cargo run -p tm-async-bench --release --bin table1 [operands]`

use celllib::LibraryKind;
use tm_async_bench::args::{or_exit, positional};

const USAGE: &str = "usage: table1 [operands]";

fn main() {
    let operands = or_exit(
        positional(std::env::args().nth(1), "operands", 60, 1),
        USAGE,
    );
    println!("Experiment E1 — Table I ({operands} operands per design)\n");
    let table = tm_async_bench::table1::run(operands, 2021);
    print!("{}", table.render());
    for kind in [LibraryKind::UmcLl, LibraryKind::FullDiffusion] {
        if let Some(speedup) = table.latency_speedup(kind) {
            println!("{kind}: dual-rail average latency is {speedup:.1}x lower than the synchronous clock period");
        }
    }
}
