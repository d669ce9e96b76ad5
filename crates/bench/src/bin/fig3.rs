//! Regenerates Figure 3 of the paper (dual-rail latency vs supply voltage
//! on the FULL DIFFUSION library).
//!
//! Usage: `cargo run -p tm-async-bench --release --bin fig3 [operands]`

use tm_async_bench::args::{or_exit, positional};

const USAGE: &str = "usage: fig3 [operands]";

fn main() {
    let operands = or_exit(
        positional(std::env::args().nth(1), "operands", 20, 1),
        USAGE,
    );
    println!("Experiment E2 — Figure 3 ({operands} operands per voltage)\n");
    let fig = tm_async_bench::fig3::run(&tm_async_bench::fig3::default_voltages(), operands, 2021);
    print!("{}", fig.render());
    println!(
        "\nlatency dynamic range across the sweep: {:.0}x",
        fig.dynamic_range()
    );
}
