//! Environment-driven service configuration.
//!
//! Every knob has a `CALCIOM_*` environment variable and a default that
//! works for local runs; [`ServeConfig::from_env`] reads them all and
//! rejects malformed values with a typed [`ServeConfigError`] naming the
//! offending variable, so a typo in a deployment manifest fails the boot
//! instead of silently running with a default.

/// Tunable limits and sizing of one server process.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`CALCIOM_ADDR`, default `127.0.0.1:7117`;
    /// `…:0` binds an ephemeral port — the tests' mode).
    pub addr: String,
    /// Worker threads handling requests (`CALCIOM_WORKERS`; 0, the
    /// default, means one per available core).
    pub workers: usize,
    /// Default shard count of `/v1/batch` fan-outs when the request does
    /// not pass `?shards=` (`CALCIOM_SHARDS`; 0, the default, means one
    /// shard per available core).
    pub shards: usize,
    /// Hard cap on a request body in bytes (`CALCIOM_MAX_BODY`, default
    /// 4 MiB). A `Content-Length` beyond it is answered `413` without
    /// reading the body.
    pub max_body: usize,
    /// Capacity of the response cache in entries (`CALCIOM_CACHE_CAP`,
    /// default 256; 0 disables caching). The same cap is installed on the
    /// process-wide `iobench::BaselineCache` at server start.
    pub cache_cap: usize,
    /// Hard cap on a scenario's simulated-time horizon in seconds
    /// (`CALCIOM_MAX_HORIZON`, default 7 simulated days). A scenario
    /// asking for more is rejected `422` before it can wedge a worker.
    pub max_horizon_secs: f64,
    /// Maximum requests served on one connection before the server
    /// forces `Connection: close` (`CALCIOM_MAX_REQUESTS`, default 1000;
    /// 0 means unlimited). Bounds how long one client can pin server
    /// state, and gives load balancers a natural rebalancing point.
    pub max_requests_per_conn: usize,
    /// How long a connection may sit idle *between* requests before the
    /// server closes it (`CALCIOM_IDLE_TIMEOUT_MS`, default 5000 ms).
    pub idle_timeout_ms: u64,
    /// How long a client may dribble *inside* one request head/body
    /// before the server answers `408` and closes — the slow-loris
    /// defense (`CALCIOM_HEADER_TIMEOUT_MS`, default 10000 ms).
    pub header_timeout_ms: u64,
    /// Maximum concurrently open connections (`CALCIOM_MAX_CONNS`,
    /// default 1024). The epoll reactor stops accepting while at the
    /// cap, so a connection flood queues in the OS listen backlog
    /// instead of growing process state.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7117".to_string(),
            workers: 0,
            shards: 0,
            max_body: 4 << 20,
            cache_cap: 256,
            max_horizon_secs: 7.0 * 86_400.0,
            max_requests_per_conn: 1000,
            idle_timeout_ms: 5_000,
            header_timeout_ms: 10_000,
            max_conns: 1024,
        }
    }
}

/// A malformed `CALCIOM_*` environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfigError {
    /// The variable that failed to parse.
    pub var: &'static str,
    /// Its rejected value.
    pub value: String,
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid value for {}: {:?}", self.var, self.value)
    }
}

impl std::error::Error for ServeConfigError {}

impl ServeConfig {
    /// Reads the configuration from the `CALCIOM_*` environment, using
    /// the [`Default`] for every unset variable.
    pub fn from_env() -> Result<ServeConfig, ServeConfigError> {
        let mut config = ServeConfig::default();
        if let Some(addr) = read("CALCIOM_ADDR") {
            config.addr = addr;
        }
        config.workers = parsed("CALCIOM_WORKERS", config.workers)?;
        config.shards = parsed("CALCIOM_SHARDS", config.shards)?;
        config.max_body = parsed("CALCIOM_MAX_BODY", config.max_body)?;
        config.cache_cap = parsed("CALCIOM_CACHE_CAP", config.cache_cap)?;
        config.max_horizon_secs = parsed("CALCIOM_MAX_HORIZON", config.max_horizon_secs)?;
        if !(config.max_horizon_secs.is_finite() && config.max_horizon_secs > 0.0) {
            return Err(ServeConfigError {
                var: "CALCIOM_MAX_HORIZON",
                value: format!("{}", config.max_horizon_secs),
            });
        }
        config.max_requests_per_conn =
            parsed("CALCIOM_MAX_REQUESTS", config.max_requests_per_conn)?;
        config.idle_timeout_ms = parsed("CALCIOM_IDLE_TIMEOUT_MS", config.idle_timeout_ms)?;
        config.header_timeout_ms = parsed("CALCIOM_HEADER_TIMEOUT_MS", config.header_timeout_ms)?;
        for (var, value) in [
            ("CALCIOM_IDLE_TIMEOUT_MS", config.idle_timeout_ms),
            ("CALCIOM_HEADER_TIMEOUT_MS", config.header_timeout_ms),
        ] {
            if value == 0 {
                return Err(ServeConfigError {
                    var,
                    value: "0".to_string(),
                });
            }
        }
        config.max_conns = parsed("CALCIOM_MAX_CONNS", config.max_conns)?;
        if config.max_conns == 0 {
            return Err(ServeConfigError {
                var: "CALCIOM_MAX_CONNS",
                value: "0".to_string(),
            });
        }
        Ok(config)
    }

    /// The effective worker count (resolves `0` to the core count).
    pub fn effective_workers(&self) -> usize {
        resolve_auto(self.workers)
    }

    /// The effective default shard count (resolves `0` to the core count).
    pub fn effective_shards(&self) -> usize {
        resolve_auto(self.shards)
    }

    /// The per-connection request cap as an `Option` (0 = unlimited).
    pub fn request_cap(&self) -> Option<usize> {
        (self.max_requests_per_conn != 0).then_some(self.max_requests_per_conn)
    }

    /// The idle (between-requests) timeout.
    pub fn idle_timeout(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.idle_timeout_ms)
    }

    /// The mid-request (slow-loris) timeout.
    pub fn header_timeout(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.header_timeout_ms)
    }
}

fn resolve_auto(configured: usize) -> usize {
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn read(var: &'static str) -> Option<String> {
    std::env::var(var).ok().filter(|v| !v.is_empty())
}

fn parsed<T: std::str::FromStr>(var: &'static str, default: T) -> Result<T, ServeConfigError> {
    match read(var) {
        None => Ok(default),
        Some(value) => value.parse().map_err(|_| ServeConfigError { var, value }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert_eq!(c.addr, "127.0.0.1:7117");
        assert!(c.max_body >= 1 << 20);
        assert!(c.cache_cap > 0);
        assert!(c.effective_workers() >= 1);
        assert!(c.effective_shards() >= 1);
        assert!(c.max_requests_per_conn >= 1);
        assert!(c.idle_timeout().as_millis() > 0);
        assert!(c.header_timeout() >= c.idle_timeout());
        assert!(c.max_conns >= 64);
    }

    #[test]
    fn request_cap_treats_zero_as_unlimited() {
        let mut c = ServeConfig::default();
        assert_eq!(c.request_cap(), Some(c.max_requests_per_conn));
        c.max_requests_per_conn = 0;
        assert_eq!(c.request_cap(), None);
    }

    #[test]
    fn config_error_names_the_variable() {
        let e = ServeConfigError {
            var: "CALCIOM_WORKERS",
            value: "lots".to_string(),
        };
        assert!(e.to_string().contains("CALCIOM_WORKERS"));
        assert!(e.to_string().contains("lots"));
    }
}
