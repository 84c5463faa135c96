//! Regenerates Figure 3 (supervised classification accuracy).

fn main() {
    lumos_bench::figure::main(env!("CARGO_BIN_NAME"));
}
