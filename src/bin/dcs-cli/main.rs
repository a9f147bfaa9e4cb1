//! `dcs-cli` — command-line front end for the DCS toolchain.
//!
//! ```text
//! dcs-cli gen-trace <out.trace> [--packets N] [--seed N]
//!                   [--content-seed N] [--plant g,size[,unaligned]]
//! dcs-cli collect   <in.trace> [--router N] [--out digest.dcsr]
//! dcs-cli analyze   <digest.dcsr>... [--metrics-json path]
//! dcs-cli serve     [--bind addr] [--routers N] [--resume ckpt] …
//! dcs-cli monitor   [--center addr] [--router N] [--infected] …
//! dcs-cli demo
//! ```
//!
//! `gen-trace` writes a synthetic trace (optionally with a planted common
//! content); `collect` plays a monitoring point over a trace and emits the
//! digest bundle as the `DCSR` frame a monitor ships; `analyze` hands the
//! frames to the centre's ingest path, as `serve` does, and prints the
//! epoch report as JSON (`--metrics-json` additionally dumps the centre's
//! per-stage metrics snapshot). `analyze` sizes the centre from the files,
//! so a file that does not parse is an error naming it (exit 1), where
//! `serve` would exclude that router's frame from the epoch;
//! `serve`/`monitor` run the analysis centre and monitoring points as
//! real socket processes (see [`deploy`]). Every role builds digests and
//! judges them with the one deployment shape in [`deploy`], and refuses
//! a flag it does not take: no subcommand reads a config file. Argument
//! parsing is deliberately dependency-free.

mod deploy;

use dcs_collect::aligned::TARGET_FILL;
use dcs_core::{
    AnalysisCenter, AnalysisConfig, CollectedEpoch, EpochReport, MonitoringPoint, RouterDigestView,
};
use dcs_traffic::gen::{generate_epoch, BackgroundConfig, SizeMix};
use dcs_traffic::trace::{TraceReader, TraceWriter};
use dcs_traffic::{ContentObject, Planting};
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

/// Pulls `--name value` out of `args` and parses the value; `None` when
/// the flag is absent or has no value after it (it then stays in `args`).
/// A value that does not parse is an error naming the flag.
fn flag<T: std::str::FromStr>(args: &mut Vec<String>, name: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Ok(None);
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

/// Refuses any `--flag` left in `args` once `role` has taken its own.
fn no_other_flags(role: &str, args: &[String]) -> Result<(), String> {
    let other: Vec<&String> = args.iter().filter(|a| a.starts_with("--")).collect();
    if other.is_empty() {
        Ok(())
    } else {
        Err(format!("{role}: unrecognised arguments {other:?}"))
    }
}

/// An input of zero the program cannot run on — a router count or a
/// packet size — named by the flag it came from.
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
    let packets = flag(&mut args, "--packets")?.unwrap_or(20_000usize);
    let seed = flag(&mut args, "--seed")?.unwrap_or(0u64);
    let plant_spec: Option<String> = flag(&mut args, "--plant")?;
    // The planted object is generated from its own seed so different
    // routers (different --seed) can still carry the *same* content.
    let content_seed = flag(&mut args, "--content-seed")?.unwrap_or(1u64);
    no_other_flags("gen-trace", &args)?;
    let [out] = args.as_slice() else {
        return Err("usage: gen-trace <out.trace> [--packets N] [--seed N] \
                    [--content-seed N] [--plant g,size[,unaligned]]"
            .into());
    };

    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut traffic = generate_epoch(
        &mut rng,
        &BackgroundConfig {
            packets,
            flows: (packets / 10).max(1),
            zipf_exponent: 1.0,
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
    let router = flag(&mut args, "--router")?.unwrap_or(0usize);
    let out: Option<String> = flag(&mut args, "--out")?;
    no_other_flags("collect", &args)?;
    let [input] = args.as_slice() else {
        return Err("usage: collect <in.trace> [--router N] [--out digest.dcsr]".into());
    };

    let mut point = MonitoringPoint::new(router, &deploy::monitor_config());
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
             cut the trace into shorter epochs",
            point.aligned().fill_ratio(),
            TARGET_FILL
        );
    }
    let digest = point.finish_epoch();
    let frame = digest.encode_wire()?;
    match out {
        Some(path) => {
            std::fs::write(&path, &frame)?;
            println!(
                "router {router}: {count} packets -> {} digest bytes -> {path}",
                digest.encoded_len()
            );
        }
        None => std::io::stdout().write_all(&frame)?,
    }
    Ok(())
}

fn analyze(args: &[String]) -> CliResult {
    let mut args = args.to_vec();
    let metrics_out: Option<String> = flag(&mut args, "--metrics-json")?;
    no_other_flags("analyze", &args)?;
    if args.is_empty() {
        return Err("usage: analyze <digest.dcsr>... [--metrics-json path]".into());
    }
    let frames = args
        .iter()
        .map(|path| std::fs::read(path).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let (center, report) = judge_files(&args, frames)?;
    println!("{}", serde_json::to_string_pretty(&report)?);
    if let Some(path) = metrics_out {
        std::fs::write(&path, center.metrics().to_json_pretty() + "\n")?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

/// Judges the DCSR `frames` read from `paths` as one epoch, with the
/// deployment's centre ([`AnalysisConfig::deployed`]) over the Σ groups
/// of the frames and the width of the first. The centre is sized from
/// the frames, so each must parse here, or the error names its path; the
/// ingest path then validates them again, as it does under `serve`.
fn judge_files(
    paths: &[String],
    frames: Vec<Vec<u8>>,
) -> Result<(AnalysisCenter, EpochReport), Box<dyn std::error::Error>> {
    let views = paths
        .iter()
        .zip(&frames)
        .map(|(path, frame)| RouterDigestView::parse(frame).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let total_groups: usize = views.iter().map(|(v, _)| v.unaligned.groups()).sum();
    let bits = views[0].0.aligned.bitmap.len();
    let center = AnalysisCenter::new(AnalysisConfig::deployed(total_groups.max(2), bits));
    let report = center.analyze_epoch_collected(&CollectedEpoch::from_frames(frames))?;
    Ok((center, report))
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
        let digest = dir.join(format!("router{r}.dcsr"));
        collect(&[
            trace.to_string_lossy().into_owned(),
            "--router".into(),
            format!("{r}"),
            "--out".into(),
            digest.to_string_lossy().into_owned(),
        ])?;
        digest_paths.push(digest.to_string_lossy().into_owned());
    }
    analyze(&digest_paths)?;
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    /// The [`ZeroShape`] a subcommand failed with.
    fn zero_shape(result: CliResult) -> ZeroShape {
        *result.unwrap_err().downcast::<ZeroShape>().unwrap()
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

    /// The digest width is the deployment's: `collect` refuses a `--bits`
    /// of zero (or any other) as a flag it does not take, before it opens
    /// the trace.
    #[test]
    fn collect_rejects_zero_bits() {
        let result = collect(&args(&["missing.trace", "--bits", "0"]));
        assert_eq!(
            result.unwrap_err().to_string(),
            r#"collect: unrecognised arguments ["--bits"]"#
        );
    }

    /// The group count is the deployment's: `collect` refuses a
    /// `--groups` of zero (or any other) as a flag it does not take,
    /// before it opens the trace.
    #[test]
    fn collect_rejects_zero_groups() {
        let result = collect(&args(&["missing.trace", "--groups", "0"]));
        assert_eq!(
            result.unwrap_err().to_string(),
            r#"collect: unrecognised arguments ["--groups"]"#
        );
    }
}
