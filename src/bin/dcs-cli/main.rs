//! `dcs-cli` — command-line front end for the DCS toolchain.
//!
//! ```text
//! dcs-cli gen-trace <out.trace> [--packets N] [--flows N] [--zipf S]
//!                   [--seed N] [--plant g,size[,unaligned]]
//! dcs-cli collect   <in.trace> --router N [--seed N] [--bits N]
//!                   [--groups N] [--config monitor.json]
//!                   [--out digest.json]
//! dcs-cli analyze   <digest.json>... [--threshold N] [--metrics-json path]
//! dcs-cli serve     [--config serve.json] [--bind addr] [--resume ckpt] …
//! dcs-cli monitor   [--config monitor.json] [--center addr] [--router N] …
//! dcs-cli demo
//! ```
//!
//! `gen-trace` writes a synthetic trace (optionally with a planted common
//! content); `collect` plays a monitoring point over a trace and emits the
//! digest bundle as JSON; `analyze` fuses digest files and prints the
//! epoch report (`--metrics-json` additionally dumps the centre's
//! per-stage metrics snapshot); `serve`/`monitor` run the analysis centre
//! and monitoring points as real socket processes (see [`deploy`]).
//! Argument parsing is deliberately dependency-free.

mod deploy;

use dcs::core::prelude::*;
use dcs::traffic::gen::{generate_epoch, BackgroundConfig, SizeMix};
use dcs::traffic::trace::{TraceReader, TraceWriter};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-trace") => gen_trace(&args[1..]),
        Some("collect") => collect(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("serve") => deploy::serve(&args[1..]),
        Some("monitor") => deploy::monitor(&args[1..]),
        Some("config") => print_default_config(),
        Some("demo") => demo(),
        _ => {
            eprintln!(
                "usage: dcs-cli <gen-trace|collect|analyze|serve|monitor|demo> …\n\
                 see the crate docs or run each subcommand with wrong args \
                 for its usage line"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Pulls `--name value` out of an argument list; returns the remainder.
fn take_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == name)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn parse_or<T: std::str::FromStr>(v: Option<String>, default: T) -> Result<T, String> {
    match v {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad numeric value {s:?}")),
    }
}

/// An input of zero the program cannot run on — a bitmap width, a group
/// or router count, a packet size, or a give-up budget — named by the
/// flag or config field it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ZeroShape(&'static str);

impl std::fmt::Display for ZeroShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} must be positive", self.0)
    }
}

impl std::error::Error for ZeroShape {}

/// `value`, or a [`ZeroShape`] naming `name` if it is zero.
fn positive<T: Default + PartialEq>(name: &'static str, value: T) -> Result<T, ZeroShape> {
    if value == T::default() {
        Err(ZeroShape(name))
    } else {
        Ok(value)
    }
}

fn gen_trace(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let packets = parse_or(take_flag(&mut args, "--packets"), 20_000usize)?;
    let flows = parse_or(take_flag(&mut args, "--flows"), packets / 10)?;
    let zipf = parse_or(take_flag(&mut args, "--zipf"), 1.0f64)?;
    let seed = parse_or(take_flag(&mut args, "--seed"), 0u64)?;
    let plant_spec = take_flag(&mut args, "--plant");
    // The planted object is generated from its own seed so different
    // routers (different --seed) can still carry the *same* content.
    let content_seed = parse_or(take_flag(&mut args, "--content-seed"), 1u64)?;
    let [out] = args.as_slice() else {
        return Err("usage: gen-trace <out.trace> [--packets N] [--flows N] \
                    [--zipf S] [--seed N] [--content-seed N] \
                    [--plant g,size[,unaligned]]"
            .into());
    };

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut traffic = generate_epoch(
        &mut rng,
        &BackgroundConfig {
            packets,
            flows: flows.max(1),
            zipf_exponent: zipf,
            size_mix: SizeMix::internet_default(),
        },
    );
    if let Some(spec) = plant_spec {
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() < 2 {
            return Err("--plant expects g,size[,unaligned]".into());
        }
        let g: usize = parts[0].parse()?;
        let size = positive("--plant size", parts[1].parse()?)?;
        let unaligned = parts.get(2).is_some_and(|&m| m == "unaligned");
        let mut content_rng = rand::rngs::StdRng::seed_from_u64(content_seed);
        let object = ContentObject::random(&mut content_rng, g * size);
        let planting = if unaligned {
            Planting::unaligned(object, size)
        } else {
            Planting::aligned(object, size)
        };
        planting.plant_into(&mut rng, &mut traffic);
        println!(
            "planted {g}x{size}B content ({})",
            if unaligned { "unaligned" } else { "aligned" }
        );
    }
    let mut w = TraceWriter::new(BufWriter::new(File::create(out)?))?;
    w.write_all_packets(&traffic)?;
    let n = w.count();
    w.finish()?.flush()?;
    println!("wrote {n} packets to {out}");
    Ok(())
}

fn collect(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let router = parse_or(take_flag(&mut args, "--router"), 0usize)?;
    let seed = parse_or(take_flag(&mut args, "--seed"), 0u64)?;
    let bits = parse_or(take_flag(&mut args, "--bits"), 1usize << 20)?;
    let groups = parse_or(take_flag(&mut args, "--groups"), 32usize)?;
    let config_file = take_flag(&mut args, "--config");
    let out = take_flag(&mut args, "--out");
    let [input] = args.as_slice() else {
        return Err("usage: collect <in.trace> [--router N] [--seed N] \
                    [--bits N] [--groups N] [--config monitor.json] \
                    [--out digest.json]"
            .into());
    };

    // A config file (as printed by `dcs-cli config`) overrides the
    // individual flags wholesale.
    let cfg: MonitorConfig = match config_file {
        Some(path) => {
            let cfg: MonitorConfig = serde_json::from_str(&std::fs::read_to_string(path)?)?;
            cfg.aligned.check()?;
            cfg.unaligned.check()?;
            cfg
        }
        None => MonitorConfig::small(
            seed,
            positive("--bits", bits)?,
            positive("--groups", groups)?,
        ),
    };
    let mut point = MonitoringPoint::new(router, &cfg);
    let reader = TraceReader::new(BufReader::new(File::open(input)?))?;
    let mut count = 0u64;
    let mut full = false;
    for pkt in reader {
        full = point.observe(&pkt?);
        count += 1;
    }
    if full {
        // The whole trace is one epoch here; past the target fill the
        // centre's thresholds no longer describe this bitmap.
        eprintln!(
            "router {router}: aligned bitmap reached {:.3} fill (target {:.3}); \
             cut the trace into shorter epochs or raise --bits",
            point.aligned().fill_ratio(),
            point.aligned().config().target_fill
        );
    }
    let digest = point.finish_epoch();
    let json = serde_json::to_string(&digest)?;
    match out {
        Some(path) => {
            std::fs::write(&path, json)?;
            println!(
                "router {router}: {count} packets -> {} digest bytes -> {path}",
                digest.encoded_len()
            );
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn analyze(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let threshold = take_flag(&mut args, "--threshold")
        .map(|t| t.parse::<usize>())
        .transpose()?;
    let metrics_out = take_flag(&mut args, "--metrics-json");
    if args.is_empty() {
        return Err("usage: analyze <digest.json>... [--threshold N] [--metrics-json path]".into());
    }
    let mut digests: Vec<RouterDigest> = Vec::new();
    for path in &args {
        let data = std::fs::read_to_string(path)?;
        let digest: RouterDigest = serde_json::from_str(&data)?;
        // `groups()` below divides by it before the centre validates.
        if digest.unaligned.arrays_per_group == 0 {
            return Err(format!("{path}: unaligned.arrays_per_group is 0").into());
        }
        digests.push(digest);
    }
    let total_groups: usize = digests.iter().map(|d| d.unaligned.groups()).sum();
    let mut cfg = AnalysisConfig::for_groups(total_groups.max(2));
    cfg.search.n_prime = 4_000.min(digests[0].aligned.bitmap.len());
    if let Some(t) = threshold {
        cfg.component_threshold = Some(t);
    }
    let center = AnalysisCenter::new(cfg);
    let report = center.analyze_epoch(&digests)?;
    println!("{}", serde_json::to_string_pretty(&report)?);
    if let Some(path) = metrics_out {
        std::fs::write(&path, center.metrics().to_json_pretty() + "\n")?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

fn demo() -> CliResult {
    // End-to-end round trip through temporary files: generate traces for
    // a small deployment (one infected majority), collect, analyse.
    let dir = std::env::temp_dir().join(format!("dcs-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    println!("demo working directory: {}", dir.display());
    const ROUTERS: usize = 24;
    let mut digest_paths = Vec::new();
    for r in 0..ROUTERS {
        let trace = dir.join(format!("router{r}.trace"));
        let mut cmd = vec![
            trace.to_string_lossy().into_owned(),
            "--packets".into(),
            "4000".into(),
            "--seed".into(),
            format!("{r}"),
        ];
        if r < 18 {
            // A shared content seed puts the SAME object in all nine
            // infected traces (the backgrounds still differ by --seed).
            cmd.extend([
                "--plant".into(),
                "30,536".into(),
                "--content-seed".into(),
                "42".into(),
            ]);
        }
        gen_trace(&cmd)?;
        let digest = dir.join(format!("router{r}.json"));
        collect(&[
            trace.to_string_lossy().into_owned(),
            "--router".into(),
            format!("{r}"),
            "--seed".into(),
            "7".into(),
            "--bits".into(),
            "16384".into(),
            "--groups".into(),
            "4".into(),
            "--out".into(),
            digest.to_string_lossy().into_owned(),
        ])?;
        digest_paths.push(digest.to_string_lossy().into_owned());
    }
    analyze(&digest_paths)?;
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

fn print_default_config() -> CliResult {
    // A starting-point monitor configuration; edit and pass to
    // `collect --config`. The analysis centre derives its own settings
    // from the digests.
    let cfg = MonitorConfig::small(/*epoch_seed=*/ 0, 1 << 20, 32);
    println!("{}", serde_json::to_string_pretty(&cfg)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs::collect::ConfigError;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    /// The [`ZeroShape`] a subcommand failed with.
    fn zero_shape(result: CliResult) -> ZeroShape {
        *result.unwrap_err().downcast::<ZeroShape>().unwrap()
    }

    /// The config field a subcommand failed on.
    fn config_field(result: CliResult) -> &'static str {
        result.unwrap_err().downcast::<ConfigError>().unwrap().field
    }

    /// `collect --config` on the default config with `edit` applied.
    fn collect_with_config(name: &str, edit: impl FnOnce(&mut MonitorConfig)) -> CliResult {
        let path = std::env::temp_dir().join(format!("dcs-{name}-{}.json", std::process::id()));
        let mut cfg = MonitorConfig::small(0, 1 << 10, 4);
        edit(&mut cfg);
        std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let result = collect(&args(&[
            "missing.trace",
            "--config",
            path.to_str().unwrap(),
        ]));
        std::fs::remove_file(&path).unwrap();
        result
    }

    #[test]
    fn gen_trace_rejects_a_zero_plant_size() {
        let result = gen_trace(&args(&[
            "missing.trace",
            "--packets",
            "10",
            "--plant",
            "30,0",
        ]));
        assert_eq!(zero_shape(result), ZeroShape("--plant size"));
    }

    #[test]
    fn collect_rejects_zero_bits() {
        let result = collect(&args(&["missing.trace", "--bits", "0"]));
        assert_eq!(zero_shape(result), ZeroShape("--bits"));
    }

    #[test]
    fn collect_rejects_zero_groups() {
        let result = collect(&args(&["missing.trace", "--groups", "0"]));
        assert_eq!(zero_shape(result), ZeroShape("--groups"));
    }

    #[test]
    fn collect_rejects_a_config_with_zero_bitmap_bits() {
        let result = collect_with_config("zero-bits", |c| c.aligned.bitmap_bits = 0);
        assert_eq!(config_field(result), "aligned.bitmap_bits");
    }

    #[test]
    fn collect_rejects_a_config_with_zero_groups() {
        let result = collect_with_config("zero-groups", |c| c.unaligned.groups = 0);
        assert_eq!(config_field(result), "unaligned.groups");
    }

    #[test]
    fn collect_rejects_a_config_with_zero_arrays_per_group() {
        let result = collect_with_config("zero-arrays", |c| c.unaligned.arrays_per_group = 0);
        assert_eq!(config_field(result), "unaligned.arrays_per_group");
    }

    #[test]
    fn collect_rejects_a_config_with_zero_target_fill() {
        let result = collect_with_config("zero-fill", |c| c.aligned.target_fill = 0.0);
        assert_eq!(config_field(result), "aligned.target_fill");
    }

    #[test]
    fn collect_rejects_a_config_with_zero_array_bits() {
        let result = collect_with_config("zero-array-bits", |c| c.unaligned.array_bits = 0);
        assert_eq!(config_field(result), "unaligned.array_bits");
    }

    #[test]
    fn collect_rejects_a_config_with_zero_fragment_len() {
        let result = collect_with_config("zero-fragment", |c| c.unaligned.fragment_len = 0);
        assert_eq!(config_field(result), "unaligned.fragment_len");
    }
}
