//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result as the last line of stdout;
//! exits non-zero when a correctness check fails. See `README.md`.

use std::process::ExitCode;

use iba_perfbench::{trace, workloads, RunArgs};

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "perfbench/out";

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = workloads::run(&args);
    eprintln!(
        "perfbench {} seed={} seconds={} trace={} (nproc {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    eprint!("{}", outcome.table());
    if args.trace {
        for (thread, sum_self, roots) in trace::reconcile(&outcome.spans) {
            eprintln!("  thread {thread}: self times {sum_self} ns, root spans {roots} ns");
        }
        for (name, ns) in trace::self_times(&outcome.spans) {
            eprintln!("  self {name:<28} {:>12.3} ms", ns as f64 / 1e6);
        }
        let path = format!(
            "{TRACE_DIR}/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        );
        match std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&outcome.spans)))
        {
            Ok(()) => eprintln!("  spans written to {path}"),
            Err(e) => eprintln!("  spans not written ({path}: {e})"),
        }
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
