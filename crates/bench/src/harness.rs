//! CLI parsing, dataset scaling, result output, and the sweep that
//! Figures 1–3 share.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use memcom_data::DatasetSpec;
use memcom_models::sweep::{paper_method_grid, run_sweep, SweepPoint};
use memcom_models::trainer::TrainConfig;
use memcom_models::{ModelKind, SweepConfig};

/// Arguments shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Run at full Table-2 scale (hours of compute) instead of the scaled
    /// default.
    pub full: bool,
    /// Override the per-dataset scale divisor.
    pub scale: Option<usize>,
    /// Extra-small configuration for smoke tests.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            full: false,
            scale: None,
            quick: false,
            seed: 42,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`-style arguments. Recognized flags:
    /// `--full`, `--quick`, `--scale N`, `--seed N`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => out.full = true,
                "--quick" => out.quick = true,
                "--scale" => {
                    out.scale = iter.next().and_then(|v| v.parse().ok());
                }
                "--seed" => {
                    if let Some(s) = iter.next().and_then(|v| v.parse().ok()) {
                        out.seed = s;
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }
}

/// Default scale divisor per dataset: tuned so a figure's whole sweep
/// finishes in minutes while keeping ≥ thousands of vocabulary entities.
pub fn default_scale(name: &str) -> usize {
    match name {
        "newsgroup" => 10,
        "movielens" => 4,
        "million_songs" => 20,
        "google_local" => 40,
        "netflix" => 8,
        "games" => 200,
        "arcade" => 100,
        _ => 20,
    }
}

/// Applies the harness scale policy to a dataset spec: `--full` keeps
/// Table-2 scale; otherwise the per-dataset divisor (or `--scale`) is
/// applied and sample counts are capped to keep sweeps fast.
pub fn scaled_spec(spec: &DatasetSpec, args: &HarnessArgs) -> DatasetSpec {
    if args.full {
        return spec.clone();
    }
    let factor = args.scale.unwrap_or_else(|| default_scale(spec.name));
    let mut scaled = spec.scaled(factor);
    let (train_cap, eval_cap, len) = if args.quick {
        (400, 150, 16)
    } else {
        (4_000, 1_000, spec.input_len)
    };
    scaled.train_samples = scaled.train_samples.min(train_cap);
    scaled.eval_samples = scaled.eval_samples.min(eval_cap);
    scaled.input_len = len;
    scaled
}

/// Writes experiment rows to stdout and to `results/<name>.tsv`.
#[derive(Debug)]
pub struct ResultWriter {
    path: PathBuf,
    lines: Vec<String>,
}

impl ResultWriter {
    /// Creates a writer for experiment `name`.
    pub fn new(name: &str) -> Self {
        ResultWriter {
            path: PathBuf::from(format!("results/{name}.tsv")),
            lines: Vec::new(),
        }
    }

    /// Adds a header row.
    pub fn header(&mut self, cols: &[&str]) {
        self.row(cols);
    }

    /// Adds a data row (also echoed to stdout, tab-separated).
    pub fn row(&mut self, cols: &[&str]) {
        let line = cols.join("\t");
        println!("{line}");
        self.lines.push(line);
    }

    /// Adds a preformatted block verbatim.
    pub fn block(&mut self, text: &str) {
        println!("{text}");
        self.lines.push(text.to_string());
    }

    /// Flushes everything to `results/<name>.tsv`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating `results/` or the file.
    pub fn flush(&self) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::File::create(&self.path)?;
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// Prints a standard experiment banner with the paper reference.
pub fn banner(title: &str, paper_ref: &str, expectation: &str) {
    println!("================================================================");
    println!("{title}");
    println!("paper: {paper_ref}");
    println!("expected shape: {expectation}");
    println!("================================================================");
}

/// The sweep settings Figures 1–3 share: embedding size, epochs,
/// training seed and replicate count, each shrunk by `--quick`.
pub fn sweep_config(kind: ModelKind, args: &HarnessArgs) -> SweepConfig {
    SweepConfig {
        kind,
        embedding_dim: if args.quick { 16 } else { 32 },
        train: TrainConfig {
            epochs: if args.quick { 1 } else { 8 },
            seed: args.seed,
            ..TrainConfig::default()
        },
        replicates: if args.quick { 1 } else { 2 },
        ..SweepConfig::default()
    }
}

/// Runs one compression-vs-quality figure (Figures 1 and 2): every
/// technique of the paper's grid on each of `datasets` with a `kind`
/// network, written to `results/<name>.tsv`. The three strings are
/// [`banner`]'s lines; `metric` names the quality column and `read`
/// takes it, with its loss percentage, off a sweep point.
///
/// # Panics
///
/// Panics when a sweep fails or `results/` is not writable.
pub fn sweep_figure(
    name: &str,
    [title, paper_ref, expectation]: [&str; 3],
    kind: ModelKind,
    datasets: &[DatasetSpec],
    metric: &str,
    read: fn(&SweepPoint) -> (f64, f64),
) {
    let args = HarnessArgs::from_env();
    banner(title, paper_ref, expectation);
    let mut writer = ResultWriter::new(name);
    writer.header(&[
        "dataset",
        "method",
        "params",
        "compression_ratio",
        metric,
        &format!("{metric}_loss_pct"),
    ]);
    let config = sweep_config(kind, &args);
    for base in datasets {
        let spec = scaled_spec(base, &args);
        eprintln!(
            "[{name}] {}: vocab={} out={} train={}",
            spec.name,
            spec.input_vocab(),
            spec.output_vocab,
            spec.train_samples
        );
        let data = spec.generate(args.seed);
        let grid = paper_method_grid(spec.input_vocab(), config.embedding_dim);
        let result = run_sweep(&spec, &data, &grid, &config).expect("sweep must complete");
        for point in std::iter::once(&result.baseline).chain(&result.points) {
            let (quality, loss_pct) = read(point);
            writer.row(&[
                spec.name,
                &point.label,
                &point.params.to_string(),
                &format!("{:.2}", point.compression_ratio),
                &format!("{quality:.4}"),
                &format!("{loss_pct:.2}"),
            ]);
        }
    }
    writer.flush().expect("results directory must be writable");
    println!("\nwrote results/{name}.tsv");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let args = HarnessArgs::parse(
            ["--full", "--scale", "7", "--seed", "9", "--quick"].map(String::from),
        );
        assert!(args.full);
        assert!(args.quick);
        assert_eq!(args.scale, Some(7));
        assert_eq!(args.seed, 9);
        let default = HarnessArgs::parse(Vec::<String>::new());
        assert_eq!(default, HarnessArgs::default());
    }

    #[test]
    fn parse_tolerates_garbage() {
        let args = HarnessArgs::parse(["--scale", "abc", "--bogus"].map(String::from));
        assert_eq!(args.scale, None);
        assert!(!args.full);
    }

    #[test]
    fn scaled_spec_respects_full() {
        let spec = DatasetSpec::movielens();
        let args = HarnessArgs {
            full: true,
            ..HarnessArgs::default()
        };
        assert_eq!(scaled_spec(&spec, &args), spec);
    }

    #[test]
    fn scaled_spec_caps_samples() {
        let spec = DatasetSpec::million_songs();
        let scaled = scaled_spec(&spec, &HarnessArgs::default());
        assert!(scaled.train_samples <= 4_000);
        assert!(scaled.eval_samples <= 1_000);
        assert_eq!(scaled.input_len, 128);
        let quick = scaled_spec(
            &spec,
            &HarnessArgs {
                quick: true,
                ..HarnessArgs::default()
            },
        );
        assert!(quick.train_samples <= 400);
        assert_eq!(quick.input_len, 16);
    }

    #[test]
    fn every_dataset_has_a_scale() {
        for spec in DatasetSpec::all() {
            assert!(default_scale(spec.name) > 1, "{}", spec.name);
        }
        assert_eq!(default_scale("unknown"), 20);
    }

    #[test]
    fn result_writer_accumulates() {
        let mut w = ResultWriter::new("harness_test_tmp");
        w.header(&["a", "b"]);
        w.row(&["1", "2"]);
        w.block("free text");
        assert_eq!(w.lines.len(), 3);
        assert_eq!(w.lines[1], "1\t2");
    }
}
