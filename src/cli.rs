//! Argument parsing for the `pmsb-sim` command-line driver.
//!
//! Hand-rolled (no CLI dependency): each sub-grammar is a small pure
//! parser with unit tests. See `src/bin/pmsb-sim.rs` for the binary and
//! `pmsb-sim help` for the surface syntax.

use pmsb_netsim::experiment::{FlowDesc, MarkingConfig, SchedulerConfig, TransportKind};
use pmsb_netsim::{BufferPolicy, EngineKind, RegionSpec};
use pmsb_workload::{PatternSpec, SizeDistSpec};

/// A parse failure with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parses a byte size with optional `K`/`M`/`G` suffix (decimal powers),
/// or `u`/`unbounded` for a long-lived flow.
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_size_bytes;
///
/// assert_eq!(parse_size_bytes("64K").unwrap(), 64_000);
/// assert_eq!(parse_size_bytes("1.5M").unwrap(), 1_500_000);
/// assert_eq!(parse_size_bytes("u").unwrap(), u64::MAX);
/// ```
pub fn parse_size_bytes(s: &str) -> Result<u64, ParseError> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("u") || s.eq_ignore_ascii_case("unbounded") {
        return Ok(u64::MAX);
    }
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1_000f64),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1_000_000f64),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1_000_000_000f64),
        _ => (s, 1f64),
    };
    match num.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok((v * mult).round() as u64),
        _ => err(format!("bad size '{s}' (examples: 64K, 1.5M, 2G, u)")),
    }
}

/// Parses a comma-separated weight list, e.g. `1,1,2`.
pub fn parse_weights(s: &str) -> Result<Vec<u64>, ParseError> {
    let weights: Result<Vec<u64>, _> = s.split(',').map(|w| w.trim().parse::<u64>()).collect();
    match weights {
        Ok(w) if !w.is_empty() && w.iter().all(|x| *x > 0) => Ok(w),
        _ => err(format!("bad weights '{s}' (example: 1,1,2)")),
    }
}

/// Parses a marking-scheme spec:
///
/// | Spec | Scheme |
/// |---|---|
/// | `none` | ECN off |
/// | `pmsb:K` | PMSB, port threshold K packets |
/// | `per-port:K` | per-port threshold K packets |
/// | `per-queue:K` | per-queue standard threshold K packets |
/// | `per-queue-frac:K` | per-queue fractional, total K packets |
/// | `pool:K` | per-service-pool threshold K packets |
/// | `mq-ecn:K` | MQ-ECN, standard threshold K packets |
/// | `tcn:NANOS` | TCN, sojourn threshold in nanoseconds |
/// | `red:MIN,MAX,P` | RED ramp, packet thresholds + max probability |
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_marking;
/// use pmsb_netsim::experiment::MarkingConfig;
///
/// assert_eq!(
///     parse_marking("pmsb:12").unwrap(),
///     MarkingConfig::Pmsb { port_threshold_pkts: 12 }
/// );
/// ```
pub fn parse_marking(s: &str) -> Result<MarkingConfig, ParseError> {
    let (kind, arg) = match s.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (s, None),
    };
    let int_arg = |what: &str| -> Result<u64, ParseError> {
        match arg.map(|a| a.parse::<u64>()) {
            Some(Ok(v)) if v > 0 => Ok(v),
            _ => err(format!("scheme '{kind}' needs {what}, e.g. {kind}:12")),
        }
    };
    match kind {
        "none" => Ok(MarkingConfig::None),
        "pmsb" => Ok(MarkingConfig::Pmsb {
            port_threshold_pkts: int_arg("a packet threshold")?,
        }),
        "per-port" => Ok(MarkingConfig::PerPort {
            threshold_pkts: int_arg("a packet threshold")?,
        }),
        "per-queue" => Ok(MarkingConfig::PerQueueStandard {
            threshold_pkts: int_arg("a packet threshold")?,
        }),
        "per-queue-frac" => Ok(MarkingConfig::PerQueueFractional {
            total_pkts: int_arg("a packet threshold")?,
        }),
        "pool" => Ok(MarkingConfig::PerPool {
            threshold_pkts: int_arg("a packet threshold")?,
        }),
        "mq-ecn" => Ok(MarkingConfig::MqEcn {
            standard_pkts: int_arg("a packet threshold")?,
        }),
        "tcn" => Ok(MarkingConfig::Tcn {
            threshold_nanos: int_arg("a sojourn threshold in ns")?,
        }),
        "red" => {
            let parts: Vec<&str> = arg.unwrap_or("").split(',').collect();
            if parts.len() != 3 {
                return err("red needs MIN,MAX,P — e.g. red:4,28,0.25");
            }
            let min = parts[0].parse::<u64>();
            let max = parts[1].parse::<u64>();
            let p = parts[2].parse::<f64>();
            match (min, max, p) {
                (Ok(min), Ok(max), Ok(p)) if min < max && p > 0.0 && p <= 1.0 => {
                    Ok(MarkingConfig::Red {
                        min_pkts: min,
                        max_pkts: max,
                        max_p: p,
                    })
                }
                _ => err("red needs MIN<MAX packets and 0<P<=1"),
            }
        }
        other => err(format!(
            "unknown marking scheme '{other}' \
             (none|pmsb|per-port|per-queue|per-queue-frac|pool|mq-ecn|tcn|red)"
        )),
    }
}

/// Parses a scheduler spec: `fifo`, `sp:N`, `dwrr:w1,w2,...`,
/// `wrr:w1,...`, `wfq:w1,...`, or `spwfq:g1,g2,..;w1,w2,..`.
pub fn parse_scheduler(s: &str) -> Result<SchedulerConfig, ParseError> {
    let (kind, arg) = match s.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (s, None),
    };
    match kind {
        "fifo" => Ok(SchedulerConfig::Fifo),
        "sp" => match arg.map(|a| a.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => Ok(SchedulerConfig::Sp { num_queues: n }),
            _ => err("sp needs a queue count, e.g. sp:3"),
        },
        "dwrr" => Ok(SchedulerConfig::Dwrr {
            weights: parse_weights(arg.unwrap_or(""))?,
        }),
        "wrr" => Ok(SchedulerConfig::Wrr {
            weights: parse_weights(arg.unwrap_or(""))?,
        }),
        "wfq" => Ok(SchedulerConfig::Wfq {
            weights: parse_weights(arg.unwrap_or(""))?,
        }),
        "spwfq" => {
            let Some((groups, weights)) = arg.unwrap_or("").split_once(';') else {
                return err("spwfq needs GROUPS;WEIGHTS — e.g. spwfq:0,1,1;1,1,1");
            };
            let group_of: Result<Vec<usize>, _> = groups
                .split(',')
                .map(|g| g.trim().parse::<usize>())
                .collect();
            match group_of {
                Ok(g) if !g.is_empty() => Ok(SchedulerConfig::SpWfq {
                    group_of: g,
                    weights: parse_weights(weights)?,
                }),
                _ => err("bad spwfq groups"),
            }
        }
        other => err(format!(
            "unknown scheduler '{other}' (fifo|sp|wrr|dwrr|wfq|spwfq)"
        )),
    }
}

/// A topology selection for the `fabric` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// The paper's 48-host leaf–spine.
    LeafSpine,
    /// A `k`-ary fat-tree: `k³/4` hosts, `(5/4)k²` switches.
    FatTree {
        /// The fat-tree parameter (even, at least 4).
        k: usize,
    },
}

/// Parses a topology spec: `leaf-spine` or `fat-tree:K` (K even, >= 4).
/// Unknown names and bad `K` values get errors that list what is
/// accepted.
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::{parse_topology, TopologySpec};
///
/// assert_eq!(parse_topology("fat-tree:8").unwrap(), TopologySpec::FatTree { k: 8 });
/// assert_eq!(parse_topology("leaf-spine").unwrap(), TopologySpec::LeafSpine);
/// ```
pub fn parse_topology(s: &str) -> Result<TopologySpec, ParseError> {
    let (kind, arg) = match s.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (s, None),
    };
    match kind {
        "leaf-spine" => match arg {
            None => Ok(TopologySpec::LeafSpine),
            Some(a) => err(format!("leaf-spine takes no parameter, got ':{a}'")),
        },
        "fat-tree" => {
            let Some(a) = arg else {
                return err("fat-tree needs a size, e.g. fat-tree:8");
            };
            match a.trim().parse::<usize>() {
                Ok(k) if k >= 4 && k.is_multiple_of(2) => Ok(TopologySpec::FatTree { k }),
                Ok(k) => err(format!(
                    "fat-tree k must be even and >= 4, got {k} \
                     (a k-ary fat-tree pairs k/2 uplinks with k/2 downlinks per switch)"
                )),
                Err(_) => err(format!("fat-tree needs an integer k, got '{a}'")),
            }
        }
        other => err(format!(
            "unknown topology '{other}' (leaf-spine|fat-tree:K)"
        )),
    }
}

/// Parses a traffic-pattern spec for the `fabric` subcommand:
///
/// | Spec | Pattern |
/// |---|---|
/// | `incast[:FAN]` | synchronized N-to-1, fan-in FAN (default 32) |
/// | `shuffle` | all-to-all waves, 100 KB flows |
/// | `hotservice[:EXP]` | Zipf(EXP) hot service (default 1.2) |
/// | `mix` | start-time merge of incast(32) and shuffle |
///
/// Any pattern may carry an `@DIST` suffix that replaces its fixed flow
/// sizes with draws from a measured CDF: `@web-search`, `@data-mining`,
/// or `@paper-mix` — e.g. `shuffle@web-search`, `incast:16@paper-mix`.
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_pattern;
/// use pmsb_workload::{PatternSpec, SizeDistSpec};
///
/// assert_eq!(parse_pattern("incast:16").unwrap(), PatternSpec::incast(16));
/// assert_eq!(
///     parse_pattern("shuffle@web-search").unwrap(),
///     PatternSpec::sized(PatternSpec::shuffle(), SizeDistSpec::WebSearch)
/// );
/// ```
pub fn parse_pattern(s: &str) -> Result<PatternSpec, ParseError> {
    // `@DIST` binds loosest: `incast:16@paper-mix` sizes incast(16).
    if let Some((base, dist)) = s.rsplit_once('@') {
        let dist = match dist {
            "web-search" => SizeDistSpec::WebSearch,
            "data-mining" => SizeDistSpec::DataMining,
            "paper-mix" => SizeDistSpec::PaperMix,
            other => {
                return err(format!(
                    "unknown size distribution '@{other}' \
                     (@web-search|@data-mining|@paper-mix)"
                ))
            }
        };
        return Ok(PatternSpec::sized(parse_pattern(base)?, dist));
    }
    let (kind, arg) = match s.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (s, None),
    };
    let no_arg = |p: PatternSpec| match arg {
        None => Ok(p),
        Some(a) => err(format!("pattern '{kind}' takes no parameter, got ':{a}'")),
    };
    match kind {
        "incast" => match arg {
            None => Ok(PatternSpec::incast(32)),
            Some(a) => match a.trim().parse::<usize>() {
                Ok(f) if f >= 1 => Ok(PatternSpec::incast(f)),
                _ => err(format!("incast needs a fan-in >= 1, got '{a}'")),
            },
        },
        "shuffle" => no_arg(PatternSpec::shuffle()),
        "hotservice" => match arg {
            None => Ok(PatternSpec::hotservice(1.2)),
            Some(a) => match a.trim().parse::<f64>() {
                Ok(e) if e >= 0.0 && e.is_finite() => Ok(PatternSpec::hotservice(e)),
                _ => err(format!("hotservice needs an exponent >= 0, got '{a}'")),
            },
        },
        "mix" => no_arg(PatternSpec::Mix(vec![
            PatternSpec::incast(32),
            PatternSpec::shuffle(),
        ])),
        other => err(format!(
            "unknown pattern '{other}' (incast[:FAN]|shuffle|hotservice[:EXP]|mix)"
        )),
    }
}

/// Parses a simulation-engine spec: `packet` (the default event-per-
/// packet engine), `fluid` (flow-level max-min rate solve with
/// steady-state marking curves), `hybrid` (fluid rates plus per-port
/// packet micro-simulations calibrating the marking behaviour), or
/// `regional[:auto|:ports=SWITCH:PORT[,...]]` (fluid everywhere except
/// a hot set of switch ports simulated at full packet level; the
/// default `auto` lets a deterministic scout pass flag the hot set).
///
/// The returned [`RegionSpec`] is meaningful only for the regional
/// engine; the other engines carry the default `auto` and ignore it.
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_engine;
/// use pmsb_netsim::{EngineKind, RegionSpec};
///
/// assert_eq!(parse_engine("hybrid").unwrap().0, EngineKind::Hybrid);
/// assert_eq!(
///     parse_engine("regional:ports=0:4").unwrap(),
///     (EngineKind::Regional, RegionSpec::Ports(vec![(0, 4)])),
/// );
/// ```
pub fn parse_engine(s: &str) -> Result<(EngineKind, RegionSpec), ParseError> {
    match s {
        "packet" => Ok((EngineKind::Packet, RegionSpec::Auto)),
        "fluid" => Ok((EngineKind::Fluid, RegionSpec::Auto)),
        "hybrid" => Ok((EngineKind::Hybrid, RegionSpec::Auto)),
        "regional" => Ok((EngineKind::Regional, RegionSpec::Auto)),
        other => match other.strip_prefix("regional:") {
            Some(spec) => Ok((EngineKind::Regional, RegionSpec::parse(spec).map_err(ParseError)?)),
            None => err(format!(
                "unknown engine '{other}' (packet|fluid|hybrid|regional[:auto|:ports=SWITCH:PORT[,...]])"
            )),
        },
    }
}

/// Parses a switch buffer-policy spec: `static` (private per-port
/// buffers, the default), `dt:ALPHA` (per-switch shared pool with
/// Dynamic-Threshold admission at the given positive scale factor), or
/// `delay[:MICROS]` (shared pool with BShare-style delay-driven caps,
/// target queueing delay in microseconds, default 100).
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_buffer;
/// use pmsb_netsim::BufferPolicy;
///
/// assert_eq!(parse_buffer("dt:1").unwrap(), BufferPolicy::DynamicThreshold { alpha: 1.0 });
/// ```
pub fn parse_buffer(s: &str) -> Result<BufferPolicy, ParseError> {
    BufferPolicy::parse(s).map_err(ParseError)
}

/// Parses a `--pmsbe-us` RTT threshold in microseconds into whole
/// nanoseconds. NaN, infinite, negative and values past `u64::MAX`
/// nanoseconds are errors, not saturated thresholds.
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_pmsbe_us;
///
/// assert_eq!(parse_pmsbe_us("85.2").unwrap(), 85_200);
/// assert!(parse_pmsbe_us("nan").is_err());
/// ```
pub fn parse_pmsbe_us(s: &str) -> Result<u64, ParseError> {
    match s.parse::<f64>().map(|us| us * 1e3) {
        // `u64::MAX as f64` is 2^64, so every value below it converts
        // without saturating.
        Ok(ns) if (0.0..u64::MAX as f64).contains(&ns) => Ok(ns as u64),
        _ => err(format!(
            "bad --pmsbe-us '{s}' (accepted: microseconds from 0 up to 1.8e16)"
        )),
    }
}

/// `s` as a decimal number times `scale`, truncated to a whole count:
/// `None` unless that count is at least 1 and fits in a `u64` (so NaN
/// and infinities are `None` too).
fn parse_scaled_count(s: &str, scale: f64) -> Option<u64> {
    let x = s.parse::<f64>().ok()? * scale;
    // `u64::MAX as f64` is 2^64, so every value below it converts
    // without saturating.
    (1.0..u64::MAX as f64).contains(&x).then_some(x as u64)
}

/// Parses `pmsb-sim profile --rtt-us`: a base RTT in microseconds into
/// whole nanoseconds, at least 1 and at most `u64::MAX`.
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_rtt_us;
///
/// assert_eq!(parse_rtt_us("85.2").unwrap(), 85_200);
/// assert!(parse_rtt_us("1e30").is_err());
/// assert!(parse_rtt_us("0.0001").is_err());
/// ```
pub fn parse_rtt_us(s: &str) -> Result<u64, ParseError> {
    parse_scaled_count(s, 1e3).ok_or_else(|| {
        ParseError(format!(
            "bad --rtt-us '{s}' (accepted: microseconds from 0.001 up to 1.8e16)"
        ))
    })
}

/// Parses `pmsb-sim profile --rate-gbps`: a link rate in Gbps
/// (fractions allowed) into whole bits per second, at least 1 and at
/// most `u64::MAX`.
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_rate_gbps;
///
/// assert_eq!(parse_rate_gbps("2.5").unwrap(), 2_500_000_000);
/// assert!(parse_rate_gbps("1e30").is_err());
/// ```
pub fn parse_rate_gbps(s: &str) -> Result<u64, ParseError> {
    parse_scaled_count(s, 1e9).ok_or_else(|| {
        ParseError(format!(
            "bad --rate-gbps '{s}' (accepted: Gbps from 1e-9 up to 1.8e10)"
        ))
    })
}

/// Parses a transport name: `dctcp` (the default) or `newreno` (classic
/// RFC 3168 ECN: halve once per RTT on ECE, no DCTCP alpha estimator).
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_transport;
/// use pmsb_netsim::experiment::TransportKind;
///
/// assert_eq!(parse_transport("newreno").unwrap(), TransportKind::NewReno);
/// ```
pub fn parse_transport(s: &str) -> Result<TransportKind, ParseError> {
    match s {
        "dctcp" => Ok(TransportKind::Dctcp),
        "newreno" => Ok(TransportKind::NewReno),
        other => err(format!("unknown transport '{other}' (dctcp|newreno)")),
    }
}

/// Parses one flow spec `SRC>DST:SERVICE:SIZE[@START_US][/RATE_GBPS]`,
/// e.g. `0>8:1:64K`, `2>8:0:u/5` (unbounded at 5 Gbps),
/// `1>4:3:1M@2500` (1 MB starting at t = 2.5 ms). A start past the end
/// of the nanosecond clock and a rate below 1 bps are errors.
///
/// # Example
///
/// ```
/// use pmsb_repro::cli::parse_flow;
///
/// let f = parse_flow("0>8:1:64K").unwrap();
/// assert_eq!((f.src_host, f.dst_host, f.service, f.size_bytes), (0, 8, 1, 64_000));
/// ```
pub fn parse_flow(s: &str) -> Result<FlowDesc, ParseError> {
    let Some((pair, rest)) = s.split_once(':') else {
        return err(format!("flow '{s}': expected SRC>DST:SERVICE:SIZE"));
    };
    let Some((src, dst)) = pair.split_once('>') else {
        return err(format!("flow '{s}': endpoint must be SRC>DST"));
    };
    let (src, dst) = match (src.trim().parse::<usize>(), dst.trim().parse::<usize>()) {
        (Ok(a), Ok(b)) if a != b => (a, b),
        _ => return err(format!("flow '{s}': bad or equal endpoints")),
    };
    let Some((service, size_part)) = rest.split_once(':') else {
        return err(format!("flow '{s}': missing SERVICE:SIZE"));
    };
    let Ok(service) = service.trim().parse::<usize>() else {
        return err(format!("flow '{s}': bad service"));
    };
    // SIZE[@START_US][/RATE_GBPS] — rate first split so '@' binds tighter.
    let (size_start, rate) = match size_part.split_once('/') {
        Some((lhs, r)) => match r.trim().parse::<f64>() {
            Ok(g) if g * 1e9 >= 1.0 => (lhs, Some((g * 1e9) as u64)),
            _ => return err(format!("flow '{s}': bad rate (accepted: at least 1 bps)")),
        },
        None => (size_part, None),
    };
    let (size, start_nanos) = match size_start.split_once('@') {
        Some((sz, st)) => match st.trim().parse::<u64>().map(|us| us.checked_mul(1_000)) {
            Ok(Some(ns)) => (sz, ns),
            _ => {
                return err(format!(
                    "flow '{s}': bad start time (accepted: 0..={} us)",
                    u64::MAX / 1_000
                ))
            }
        },
        None => (size_start, 0),
    };
    let mut f = FlowDesc::bulk(src, dst, service, parse_size_bytes(size)?).starting_at(start_nanos);
    if let Some(r) = rate {
        f = f.with_app_rate_bps(r);
    }
    Ok(f)
}

/// Positional arguments plus `(key, value)` option pairs.
pub type SplitArgs = (Vec<String>, Vec<(String, String)>);

/// Splits `args` into positional arguments and `--key value` options
/// (flags repeatable; `--flow` collects into a list). A token starting
/// with `--` is never accepted as a value, so a forgotten value is
/// reported against the right option instead of silently swallowing
/// the next one.
pub fn split_options(args: &[String]) -> Result<SplitArgs, ParseError> {
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            match it.peek() {
                Some(value) if !value.starts_with("--") => {
                    options.push((key.to_string(), it.next().unwrap().clone()));
                }
                Some(value) => {
                    return err(format!(
                        "option --{key} needs a value, but found option '{value}' \
                         next (write --{key} VALUE)"
                    ));
                }
                None => return err(format!("option --{key} needs a value")),
            }
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, options))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size_bytes("1500").unwrap(), 1500);
        assert_eq!(parse_size_bytes("64k").unwrap(), 64_000);
        assert_eq!(parse_size_bytes("10M").unwrap(), 10_000_000);
        assert_eq!(parse_size_bytes("2G").unwrap(), 2_000_000_000);
        assert_eq!(parse_size_bytes("U").unwrap(), u64::MAX);
        assert!(parse_size_bytes("-5").is_err());
        assert!(parse_size_bytes("abc").is_err());
    }

    #[test]
    fn markings_parse() {
        assert_eq!(parse_marking("none").unwrap(), MarkingConfig::None);
        assert_eq!(
            parse_marking("tcn:78200").unwrap(),
            MarkingConfig::Tcn {
                threshold_nanos: 78_200
            }
        );
        assert_eq!(
            parse_marking("red:4,28,0.25").unwrap(),
            MarkingConfig::Red {
                min_pkts: 4,
                max_pkts: 28,
                max_p: 0.25
            }
        );
        assert!(parse_marking("pmsb").is_err());
        assert!(parse_marking("red:28,4,0.25").is_err());
        assert!(parse_marking("wat:1").is_err());
    }

    #[test]
    fn schedulers_parse() {
        assert_eq!(parse_scheduler("fifo").unwrap(), SchedulerConfig::Fifo);
        assert_eq!(
            parse_scheduler("dwrr:1,1,2").unwrap(),
            SchedulerConfig::Dwrr {
                weights: vec![1, 1, 2]
            }
        );
        assert_eq!(
            parse_scheduler("spwfq:0,1,1;1,1,1").unwrap(),
            SchedulerConfig::SpWfq {
                group_of: vec![0, 1, 1],
                weights: vec![1, 1, 1]
            }
        );
        assert!(parse_scheduler("sp").is_err());
        assert!(parse_scheduler("dwrr:0,1").is_err());
    }

    #[test]
    fn transports_parse() {
        assert_eq!(parse_transport("dctcp").unwrap(), TransportKind::Dctcp);
        assert_eq!(parse_transport("newreno").unwrap(), TransportKind::NewReno);
    }

    #[test]
    fn pmsbe_thresholds_parse_in_range_only() {
        assert_eq!(parse_pmsbe_us("85.2").unwrap(), 85_200);
        assert_eq!(parse_pmsbe_us("0").unwrap(), 0);
        assert_eq!(
            parse_pmsbe_us("1.8e16").unwrap(),
            18_000_000_000_000_000_000
        );
        for bad in ["nan", "-5", "inf", "-inf", "1e30", "1.9e16", "85us"] {
            let e = parse_pmsbe_us(bad).unwrap_err();
            assert!(e.0.contains("accepted: microseconds"), "{bad}: {e}");
        }
    }

    #[test]
    fn unknown_transport_lists_the_accepted_names() {
        let e = parse_transport("cubic").unwrap_err();
        assert!(e.0.contains("cubic"), "names the bad input: {e}");
        assert!(e.0.contains("dctcp|newreno"), "lists the variants: {e}");
    }

    #[test]
    fn unknown_marking_and_scheduler_list_the_accepted_names() {
        let e = parse_marking("wat:1").unwrap_err();
        assert!(
            e.0.contains("none|pmsb|per-port|per-queue|per-queue-frac|pool|mq-ecn|tcn|red"),
            "marking error lists variants: {e}"
        );
        let e = parse_scheduler("wat").unwrap_err();
        assert!(
            e.0.contains("fifo|sp|wrr|dwrr|wfq|spwfq"),
            "scheduler error lists variants: {e}"
        );
    }

    #[test]
    fn topologies_parse() {
        assert_eq!(
            parse_topology("leaf-spine").unwrap(),
            TopologySpec::LeafSpine
        );
        assert_eq!(
            parse_topology("fat-tree:16").unwrap(),
            TopologySpec::FatTree { k: 16 }
        );
        let e = parse_topology("fat-tree:5").unwrap_err();
        assert!(
            e.0.contains("even") && e.0.contains('5'),
            "odd k gets a clear error: {e}"
        );
        let e = parse_topology("fat-tree:2").unwrap_err();
        assert!(e.0.contains("even and >= 4"), "tiny k rejected: {e}");
        let e = parse_topology("fat-tree:x").unwrap_err();
        assert!(e.0.contains("integer"), "non-numeric k rejected: {e}");
        assert!(parse_topology("fat-tree").is_err(), "missing k rejected");
        assert!(parse_topology("leaf-spine:4").is_err(), "stray parameter");
    }

    #[test]
    fn unknown_topology_and_pattern_list_the_accepted_names() {
        let e = parse_topology("torus").unwrap_err();
        assert!(e.0.contains("torus"), "names the bad input: {e}");
        assert!(
            e.0.contains("leaf-spine|fat-tree:K"),
            "lists the variants: {e}"
        );
        let e = parse_pattern("websearch").unwrap_err();
        assert!(e.0.contains("websearch"), "names the bad input: {e}");
        assert!(
            e.0.contains("incast[:FAN]|shuffle|hotservice[:EXP]|mix"),
            "lists the variants: {e}"
        );
    }

    #[test]
    fn patterns_parse() {
        assert_eq!(parse_pattern("incast").unwrap(), PatternSpec::incast(32));
        assert_eq!(parse_pattern("incast:8").unwrap(), PatternSpec::incast(8));
        assert_eq!(parse_pattern("shuffle").unwrap(), PatternSpec::shuffle());
        assert_eq!(
            parse_pattern("hotservice:1.1").unwrap(),
            PatternSpec::hotservice(1.1)
        );
        assert_eq!(
            parse_pattern("mix").unwrap(),
            PatternSpec::Mix(vec![PatternSpec::incast(32), PatternSpec::shuffle()])
        );
        assert!(parse_pattern("incast:0").is_err(), "zero fan-in rejected");
        assert!(parse_pattern("hotservice:-1").is_err(), "negative exponent");
        assert!(parse_pattern("shuffle:3").is_err(), "stray parameter");
    }

    #[test]
    fn size_dist_suffix_parses() {
        assert_eq!(
            parse_pattern("shuffle@web-search").unwrap(),
            PatternSpec::sized(PatternSpec::shuffle(), SizeDistSpec::WebSearch)
        );
        assert_eq!(
            parse_pattern("incast:16@paper-mix").unwrap(),
            PatternSpec::sized(PatternSpec::incast(16), SizeDistSpec::PaperMix)
        );
        assert_eq!(
            parse_pattern("mix@data-mining").unwrap(),
            PatternSpec::sized(
                PatternSpec::Mix(vec![PatternSpec::incast(32), PatternSpec::shuffle()]),
                SizeDistSpec::DataMining
            )
        );
        let e = parse_pattern("shuffle@pareto").unwrap_err();
        assert!(e.0.contains("pareto"), "names the bad input: {e}");
        assert!(
            e.0.contains("@web-search|@data-mining|@paper-mix"),
            "lists the variants: {e}"
        );
    }

    #[test]
    fn engines_parse() {
        assert_eq!(
            parse_engine("packet").unwrap(),
            (EngineKind::Packet, RegionSpec::Auto)
        );
        assert_eq!(
            parse_engine("fluid").unwrap(),
            (EngineKind::Fluid, RegionSpec::Auto)
        );
        assert_eq!(
            parse_engine("hybrid").unwrap(),
            (EngineKind::Hybrid, RegionSpec::Auto)
        );
        assert_eq!(
            parse_engine("regional").unwrap(),
            (EngineKind::Regional, RegionSpec::Auto)
        );
        assert_eq!(
            parse_engine("regional:auto").unwrap(),
            (EngineKind::Regional, RegionSpec::Auto)
        );
        assert_eq!(
            parse_engine("regional:ports=0:4,1:2").unwrap(),
            (
                EngineKind::Regional,
                RegionSpec::Ports(vec![(0, 4), (1, 2)])
            )
        );
        let e = parse_engine("quantum").unwrap_err();
        assert!(e.0.contains("quantum"), "names the bad input: {e}");
        assert!(
            e.0.contains("packet|fluid|hybrid|regional"),
            "lists the variants: {e}"
        );
        let e = parse_engine("regional:ports=x").unwrap_err();
        assert!(
            e.0.contains("SWITCH:PORT"),
            "region spec errors list the accepted form: {e}"
        );
    }

    #[test]
    fn buffers_parse() {
        assert_eq!(parse_buffer("static").unwrap(), BufferPolicy::Static);
        assert_eq!(
            parse_buffer("dt:0.5").unwrap(),
            BufferPolicy::DynamicThreshold { alpha: 0.5 }
        );
        assert_eq!(
            parse_buffer("delay").unwrap(),
            BufferPolicy::DelayDriven {
                target_delay_nanos: 100_000
            }
        );
        assert_eq!(
            parse_buffer("delay:250").unwrap(),
            BufferPolicy::DelayDriven {
                target_delay_nanos: 250_000
            }
        );
        assert!(parse_buffer("dt:0").is_err(), "alpha must be positive");
        assert!(parse_buffer("delay:0").is_err(), "zero target rejected");
    }

    #[test]
    fn unknown_buffer_policy_lists_the_accepted_names() {
        let e = parse_buffer("shared").unwrap_err();
        assert!(e.0.contains("shared"), "names the bad input: {e}");
        assert!(
            e.0.contains("static|dt:ALPHA|delay[:MICROS]"),
            "lists the variants: {e}"
        );
    }

    #[test]
    fn profile_rtt_and_rate_parse_to_whole_units() {
        assert_eq!(parse_rtt_us("85.2").unwrap(), 85_200);
        assert_eq!(parse_rtt_us("0.001").unwrap(), 1);
        assert_eq!(parse_rate_gbps("10").unwrap(), 10_000_000_000);
        assert_eq!(parse_rate_gbps("1e-9").unwrap(), 1);
        for bad in ["nan", "inf", "-1", "0", "1e30", "x"] {
            assert!(
                parse_rtt_us(bad).unwrap_err().0.contains("--rtt-us"),
                "{bad}"
            );
            assert!(
                parse_rate_gbps(bad).unwrap_err().0.contains("--rate-gbps"),
                "{bad}"
            );
        }
        assert!(parse_rtt_us("0.0001").is_err(), "rounds to 0 ns");
        assert!(parse_rtt_us("1.8e16").is_ok() && parse_rtt_us("1.9e16").is_err());
        assert!(parse_rate_gbps("1.8e10").is_ok() && parse_rate_gbps("1.9e10").is_err());
    }

    #[test]
    fn flows_parse() {
        let f = parse_flow("2>8:0:u/5").unwrap();
        assert_eq!(f.size_bytes, u64::MAX);
        assert_eq!(f.app_rate_bps, Some(5_000_000_000));
        let f = parse_flow("1>4:3:1M@2500").unwrap();
        assert_eq!(f.start_nanos, 2_500_000);
        assert_eq!(f.size_bytes, 1_000_000);
        assert!(parse_flow("1>1:0:1M").is_err(), "self flow");
        assert!(parse_flow("nope").is_err());
        let f = parse_flow("0>2:0:1M@18446744073709551").unwrap();
        assert_eq!(f.start_nanos, 18_446_744_073_709_551_000);
        let e = parse_flow("0>2:0:1M@18446744073709552").unwrap_err();
        assert!(e.0.contains("0..=18446744073709551 us"), "{e}");
        assert_eq!(parse_flow("0>2:0:1M/1e-9").unwrap().app_rate_bps, Some(1));
        for rate in ["0.0000000001", "0", "-1", "nan"] {
            let e = parse_flow(&format!("0>2:0:1M/{rate}")).unwrap_err();
            assert!(e.0.contains("at least 1 bps"), "{rate}: {e}");
        }
    }

    #[test]
    fn options_split() {
        let args: Vec<String> = ["dumbbell", "--senders", "4", "--flow", "0>4:0:1M"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, opts) = split_options(&args).unwrap();
        assert_eq!(pos, vec!["dumbbell"]);
        assert_eq!(opts.len(), 2);
        assert!(split_options(std::slice::from_ref(&"--senders".to_string())).is_err());
    }

    #[test]
    fn option_like_values_are_rejected() {
        // `--senders` missing its value must not swallow `--queues`.
        let args: Vec<String> = ["dumbbell", "--senders", "--queues", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = split_options(&args).unwrap_err();
        assert!(
            e.0.contains("--senders") && e.0.contains("--queues"),
            "error should name both the option and the stray token: {e}"
        );
        // A negative number is a legitimate value, not an option.
        let args: Vec<String> = ["--offset", "-5"].iter().map(|s| s.to_string()).collect();
        let (_, opts) = split_options(&args).unwrap();
        assert_eq!(opts, vec![("offset".to_string(), "-5".to_string())]);
    }
}
