//! Command-line entry point; see the library documentation.

use wavesched_perfbench::{pin_environment, run, Options, USAGE};

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    pin_environment();
    let report = run(&opts);
    for e in &report.errors {
        eprintln!("failed: {e}");
    }
    println!("{}", report.stamp_json(&opts));
    println!("{}", report.result_json());
}
