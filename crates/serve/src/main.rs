//! The `calciom-serve` binary: configure from the environment, bind,
//! serve until told to stop.
//!
//! Graceful shutdown rides the process's standard input as the signal
//! pipe (std has no signal handling, and the registry is unreachable):
//! a line reading `shutdown` triggers a graceful stop — drain, close,
//! exit 0. EOF on stdin is *ignored* so `calciom-serve < /dev/null &`
//! keeps serving; to stop such a server gracefully, run it with a FIFO
//! as stdin and write `shutdown` into it (see `.github/workflows`).

use serve::{ServeConfig, StderrLog};

fn main() {
    let config = match ServeConfig::from_env() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("calciom-serve: {e}");
            std::process::exit(2);
        }
    };
    let handle = match serve::start(config, Box::new(StderrLog)) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("calciom-serve: failed to bind: {e}");
            std::process::exit(1);
        }
    };
    let config = handle.service().config();
    eprintln!(
        "calciom-serve: listening on http://{} ({} workers, {} default shards, \
         {} body cap, cache {}, idle {}ms, header {}ms, {} reqs/conn)",
        handle.addr(),
        config.effective_workers(),
        config.effective_shards(),
        config.max_body,
        config.cache_cap,
        config.idle_timeout_ms,
        config.header_timeout_ms,
        config.max_requests_per_conn,
    );

    let signal = handle.signal();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => break, // EOF/error: keep serving, stop watching
                Ok(_) if line.trim() == "shutdown" => {
                    eprintln!("calciom-serve: shutdown requested");
                    signal.trigger();
                    break;
                }
                Ok(_) => {}
            }
        }
    });

    handle.join();
    eprintln!("calciom-serve: stopped");
}
