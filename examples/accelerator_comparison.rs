//! Full six-way accelerator comparison on AlexNet (a fast-mode Fig 11):
//! Eyeriss/ZeNA/OLAccel at 16 and 8 bits, with per-layer cycles and the
//! energy breakdown.
//!
//! Run with: `cargo run --release -p ola-examples --bin accelerator_comparison`
//! Pass `--full` for the full-resolution workload (slower).

use ola_energy::TechParams;
use ola_harness::fig11_13;
use ola_harness::prep::{default_scale, Prepared, SixWay};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = default_scale("alexnet", !full);
    println!("preparing AlexNet workloads at 1/{scale} resolution...");
    let (ws16, ws8) = Prepared::new("alexnet", scale).paper_workloads();
    let six = SixWay::run(&ws16, &ws8, &TechParams::default());
    println!("{}", fig11_13::render("alexnet", &six));
}
