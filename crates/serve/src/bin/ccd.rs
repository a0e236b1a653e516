//! `ccd` — the oracle serving daemon.
//!
//! ```text
//! ccd serve --snapshot FILE [--addr 127.0.0.1:7411] [--threads N]
//!           [--queue-cap N] [--batch-max N] [--deadline-ms N]
//!           [--write-timeout-ms N] [--outbox-cap-bytes N]
//!           [--reload-on sighup|admin|both] [--allow-resize]
//!           [--max-secs S]
//! ccd snapshot info FILE           # frame, sections, dimensions
//! ccd metrics [--addr 127.0.0.1:7411]   # dump the daemon's metrics text
//! ccd trace [--addr 127.0.0.1:7411]     # drain this connection's span ring
//! ```
//!
//! `serve` loads the snapshot (memory-mapped and served zero-copy), binds,
//! prints one status line, and runs until killed — or for `--max-secs`,
//! then drains gracefully.
//!
//! With `--reload-on`, the daemon hot-reloads the snapshot *file path* it
//! was started with: publish a new file at that path (atomically — the
//! save helpers already write temp-then-rename), then send `SIGHUP`
//! (`--reload-on sighup|both`) or the wire `reload` op (`admin|both`).
//! In-flight batches finish on the old snapshot; a file that fails
//! validation is renamed aside to `<path>.quarantined` and the old
//! generation keeps serving.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use cc_serve::{server, snapshot, ReloadConfig, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ccd serve --snapshot FILE [--addr A] [--threads N] [--queue-cap N]\n            [--batch-max N] [--deadline-ms N] [--write-timeout-ms N]\n            [--outbox-cap-bytes N] [--reload-on sighup|admin|both]\n            [--allow-resize] [--max-secs S]\n  ccd snapshot info FILE\n  ccd metrics [--addr A]\n  ccd trace [--addr A]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("snapshot") => match args.get(1).map(String::as_str) {
            Some("info") => cmd_info(&args[2..]),
            _ => usage(),
        },
        Some("metrics") => cmd_text_op(&args[1..], TextOp::Metrics),
        Some("trace") => cmd_text_op(&args[1..], TextOp::Trace),
        _ => usage(),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<_, String> {
        let snapshot_path: String = parse_flag(args, "--snapshot")?
            .ok_or_else(|| "--snapshot FILE is required".to_string())?;
        let addr: String =
            parse_flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7411".to_string());
        let mut config = ServerConfig::default();
        if let Some(t) = parse_flag(args, "--threads")? {
            config.threads = t;
        }
        if let Some(c) = parse_flag(args, "--queue-cap")? {
            config.queue_capacity = c;
        }
        if let Some(b) = parse_flag(args, "--batch-max")? {
            config.batch_max = b;
        }
        if let Some(d) = parse_flag(args, "--deadline-ms")? {
            config.default_deadline_ms = d;
        }
        if let Some(w) = parse_flag(args, "--write-timeout-ms")? {
            config.write_timeout_ms = w;
        }
        if let Some(o) = parse_flag(args, "--outbox-cap-bytes")? {
            config.outbox_cap_bytes = o;
        }
        if let Some(mode) = parse_flag::<String>(args, "--reload-on")? {
            let on_sighup = match mode.as_str() {
                "sighup" | "both" => true,
                "admin" => false,
                other => return Err(format!("bad value for --reload-on: {other}")),
            };
            config.reload = Some(ReloadConfig {
                path: snapshot_path.clone().into(),
                allow_resize: args.iter().any(|a| a == "--allow-resize"),
                on_sighup,
            });
        }
        let max_secs: Option<u64> = parse_flag(args, "--max-secs")?;
        Ok((snapshot_path, addr, config, max_secs))
    })();
    let (snapshot_path, addr, config, max_secs) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ccd: {e}");
            return usage();
        }
    };

    let opened = match snapshot::open(&snapshot_path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ccd: cannot open {snapshot_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n = opened.oracles.n();
    let routes = opened.oracles.paths().is_some();
    let mapped = opened.mapped;
    let handle = match server::serve(opened.oracles, &addr, config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("ccd: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ccd: serving {snapshot_path} (n={n}, routes={routes}, mapped={mapped}) on {} with {} workers",
        handle.addr(),
        config.threads
    );
    match max_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    let stats = handle.stats();
    handle.shutdown();
    println!(
        "ccd: drained; served={} shed={} deadline_missed={} malformed={} generation={} reloads_ok={} reloads_rejected={} worker_panics={} slow_disconnects={} spawn_refused={}",
        stats.served,
        stats.shed,
        stats.deadline_missed,
        stats.malformed,
        stats.generation,
        stats.reloads_ok,
        stats.reloads_rejected,
        stats.worker_panics,
        stats.slow_disconnects,
        stats.spawn_refused
    );
    ExitCode::SUCCESS
}

enum TextOp {
    Metrics,
    Trace,
}

fn cmd_text_op(args: &[String], which: TextOp) -> ExitCode {
    let addr = match parse_flag::<String>(args, "--addr") {
        Ok(a) => a.unwrap_or_else(|| "127.0.0.1:7411".to_string()),
        Err(e) => {
            eprintln!("ccd: {e}");
            return usage();
        }
    };
    let mut client = match cc_serve::Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ccd: cannot connect {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = match which {
        TextOp::Metrics => client.metrics(),
        TextOp::Trace => client.trace(),
    };
    match text {
        Ok(t) => {
            print!("{t}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ccd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_info(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage();
    };
    match snapshot::describe(path) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ccd: {e}");
            ExitCode::FAILURE
        }
    }
}
