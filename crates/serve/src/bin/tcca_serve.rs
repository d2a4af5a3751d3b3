//! `tcca_serve` — serve fitted multi-view models over TCP, or embed offline.
//!
//! ```text
//! tcca_serve serve   --models DIR [--addr HOST:PORT]
//!                    [--max-batch N] [--max-queue N] [--max-per-model N]
//!                    [--rescan-ms MS] [--payload-budget-mb MB]
//!                    [--train MODEL] [--train-interval-ms MS] [--train-reservoir N]
//!                    [--train-rank R] [--train-seed S] [--train-history true]
//! tcca_serve route   [--models DIR --shards N] [--shard ADDR ...] [--addr HOST:PORT]
//!                    [--replication R] [--max-batch N]
//!                    [--max-queue N] [--max-per-model N]
//! tcca_serve cluster --addr HOST:PORT [--add ADDR ...] [--remove ID ...]
//! tcca_serve soak    [--seed S] [--clients N] [--models N] [--local-shards N]
//!                    [--remote-shards N] [--phase-ms MS]
//!                    [--deadline-ms MS] [--max-queue N] [--max-per-model N]
//!                    [--assert true] [--out FILE]
//! tcca_serve embed   --model FILE --view CSV [--view CSV ...] [--out FILE]
//! tcca_serve inspect --model FILE
//! tcca_serve stats   --addr HOST:PORT [--refit true]
//! tcca_serve demo    --out DIR [--method NAME] [--instances N] [--rank R]
//! ```
//!
//! * `serve` indexes a directory of `.mvm` files and answers length-prefixed frame
//!   requests (see `serve::wire`), printing `listening on ADDR` once bound — with
//!   `--addr 127.0.0.1:0` the OS picks the port and the printed line is the source
//!   of truth (the CI smoke test parses it). `--rescan-ms` re-scans the directory on
//!   that period so new models become servable without a restart; the `Rescan` wire
//!   op does the same on demand. `--payload-budget-mb` bounds resident payload bytes
//!   with LRU eviction.
//! * `route` runs the sharded tier: N in-process shards over `--models`, and/or one
//!   remote shard per `--shard ADDR` (typically `tcca_serve serve` children).
//!   Requests shard by model name (rendezvous hashing, `--replication` replicas) and
//!   fail over when a shard dies. Prints one `shard N: LABEL` line per shard, then
//!   `listening on ADDR`. The shard set is **live**: `cluster --add/--remove` (or
//!   the control-plane wire ops) admits and drains shards at runtime.
//! * `cluster` talks the control-plane ops to a live router-backed server: each
//!   `--add ADDR` admits a validated remote shard, each `--remove ID` drains and
//!   removes one, then the final membership table prints.
//! * `soak` runs the seeded chaos harness (`serve::soak`): a sharded tier under
//!   Zipf/bursty traffic with a mid-run shard crash, injected link faults, rescan
//!   churn and eviction pressure. Emits JSON (phase metrics + counters + the fault
//!   seed for replay); `--assert true` exits non-zero if the overload contract was
//!   violated (any front-connection hang, transport error or protocol violation,
//!   or recovery below 90% of the pre-chaos baseline).
//! * Each engine runs a request as soon as one of its pool workers is free;
//!   requests that queue behind busy workers coalesce into one model call of up
//!   to `--max-batch` instances. There is no batching timer.
//! * `--max-queue` / `--max-per-model` bound each engine's admission queue; work
//!   beyond a bound is shed with an in-band `Overloaded` reply instead of queuing
//!   without limit (0 = unbounded).
//! * `embed` is the one-shot offline mode: load one model file, read one CSV per
//!   view (rows = features, columns = instances, matching the `d × N` layout), and
//!   write the `N × dim` embedding as CSV to `--out` (default stdout).
//! * `--train MODEL` (under `serve`) opts into live refresh: transform traffic for
//!   that model feeds a bounded reservoir, and the `Refit` wire op (or the
//!   `--train-interval-ms` timer) refits off the event loop and atomically swaps
//!   the new generation in — requests never block or fail across the swap.
//! * `inspect` prints a model file's header metadata without loading the payload,
//!   including refit lineage (`version`, `parent crc`).
//! * `stats` dumps a live server's counters (engine + `trainer/*` + `router/*`);
//!   `--refit true` also triggers an asynchronous refresh first.
//! * `demo` fits a small model on synthetic SecStr-like data and saves it — enough
//!   to smoke-test the serving path end to end without a dataset download.
//! * Every subcommand rejects a flag it does not read with `unknown flag --NAME`
//!   and the usage text, so a misspelled flag never passes silently.

use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec, MultiViewModel};
use serve::{
    BatchConfig, Client, ModelStore, RouterBuilder, RouterConfig, Server, TrainerConfig,
    TrainerService,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("embed") => cmd_embed(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tcca_serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  tcca_serve serve   --models DIR [--addr HOST:PORT]
                     [--max-batch N] [--max-queue N] [--max-per-model N]
                     [--rescan-ms MS] [--payload-budget-mb MB]
                     [--train MODEL] [--train-interval-ms MS] [--train-reservoir N]
                     [--train-rank R] [--train-seed S] [--train-history true]
  tcca_serve route   [--models DIR --shards N] [--shard ADDR ...] [--addr HOST:PORT]
                     [--replication R] [--max-batch N]
                     [--max-queue N] [--max-per-model N]
  tcca_serve cluster --addr HOST:PORT [--add ADDR ...] [--remove ID ...]
  tcca_serve soak    [--seed S] [--clients N] [--models N] [--local-shards N]
                     [--remote-shards N] [--phase-ms MS]
                     [--deadline-ms MS] [--max-queue N] [--max-per-model N]
                     [--assert true] [--out FILE]
  tcca_serve embed   --model FILE --view CSV [--view CSV ...] [--out FILE]
  tcca_serve inspect --model FILE
  tcca_serve stats   --addr HOST:PORT [--refit true]
  tcca_serve demo    --out DIR [--method NAME] [--instances N] [--rank R]";

/// Parse the shared `--max-batch/--max-queue/--max-per-model` engine flags on
/// top of the defaults.
fn batch_flags(flags: &Flags) -> Result<BatchConfig, String> {
    let defaults = BatchConfig::default();
    Ok(BatchConfig {
        max_batch: flags.parsed("max-batch", defaults.max_batch)?,
        max_queue: flags.parsed("max-queue", defaults.max_queue)?,
        max_per_model: flags.parsed("max-per-model", defaults.max_per_model)?,
    })
}

/// Minimal `--flag value` parser; repeated flags accumulate.
struct Flags {
    values: Vec<(String, String)>,
}

impl Flags {
    /// Parse `args`, rejecting any flag whose name is not in `known`: the
    /// whitespace-separated names the subcommand reads.
    fn parse(args: &[String], known: &str) -> Result<Self, String> {
        let mut values = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let flag = &args[i];
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, got {flag:?}\n{USAGE}"));
            };
            if !known.split_whitespace().any(|k| k == name) {
                return Err(format!("unknown flag {flag}\n{USAGE}"));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{flag} requires a value"))?;
            values.push((name.to_string(), value.clone()));
            i += 2;
        }
        Ok(Self { values })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required\n{USAGE}"))
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a number, got {v:?}")),
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        "models addr max-batch max-queue max-per-model rescan-ms payload-budget-mb \
         train train-interval-ms train-reservoir train-rank train-seed train-history",
    )?;
    let dir = flags.require("models")?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let config = batch_flags(&flags)?;
    let rescan_ms: u64 = flags.parsed("rescan-ms", 0)?;
    let budget_mb: u64 = flags.parsed("payload-budget-mb", 0)?;
    let store = Arc::new(
        ModelStore::open(EstimatorRegistry::with_builtin(), dir)
            .map_err(|e| format!("indexing {dir}: {e}"))?,
    );
    if budget_mb > 0 {
        store.set_payload_budget(budget_mb * 1024 * 1024);
    }
    if rescan_ms > 0 {
        let store = Arc::clone(&store);
        std::thread::Builder::new()
            .name("tcca-serve-rescan".into())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(rescan_ms));
                match store.rescan() {
                    Ok(report) if report.added + report.removed + report.reloaded > 0 => {
                        eprintln!(
                            "tcca_serve: rescan: +{} -{} ~{}",
                            report.added, report.removed, report.reloaded
                        );
                    }
                    Ok(_) => {}
                    Err(e) => eprintln!("tcca_serve: rescan failed: {e}"),
                }
            })
            .map_err(|e| format!("spawning the rescan thread: {e}"))?;
    }
    let names = store.names();
    // Opt-in live refresh: wrap the engine in a trainer watching one model.
    let server = if let Some(train_model) = flags.get("train") {
        let spec = FitSpec::with_rank(flags.parsed("train-rank", 2usize)?)
            .epsilon(1e-2)
            .seed(flags.parsed("train-seed", 7u64)?);
        let interval_ms: u64 = flags.parsed("train-interval-ms", 0)?;
        let mut trainer_config = TrainerConfig::watching(train_model, spec);
        trainer_config.interval = (interval_ms > 0).then(|| Duration::from_millis(interval_ms));
        trainer_config.reservoir_chunks = flags.parsed("train-reservoir", 256usize)?;
        trainer_config.keep_history = flags.get("train-history").map(str::parse) == Some(Ok(true));
        let engine = Arc::new(serve::BatchEngine::start(Arc::clone(&store), config));
        let trainer = Arc::new(TrainerService::start(
            engine,
            PathBuf::from(dir),
            trainer_config,
        ));
        Server::bind_service(addr, trainer as Arc<dyn serve::TransformService>)
    } else {
        Server::bind(addr, store, config)
    }
    .map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!("serving {} model(s): {}", names.len(), names.join(", "));
    println!("listening on {bound}");
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        "models shards shard addr replication max-batch max-queue max-per-model",
    )?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7879");
    let batch = batch_flags(&flags)?;
    let config = RouterConfig {
        replication: flags.parsed("replication", RouterConfig::default().replication)?,
        ..RouterConfig::default()
    };
    let local_shards: usize = flags.parsed("shards", 0)?;
    let remote_shards = flags.all("shard");
    if local_shards == 0 && remote_shards.is_empty() {
        return Err("route needs --shards N (with --models DIR) and/or --shard ADDR".into());
    }
    let mut builder = RouterBuilder::new(config);
    if local_shards > 0 {
        let dir = flags.require("models")?;
        for _ in 0..local_shards {
            let store = Arc::new(
                ModelStore::open(EstimatorRegistry::with_builtin(), dir)
                    .map_err(|e| format!("indexing {dir}: {e}"))?,
            );
            builder = builder.local_shard(store, batch);
        }
    }
    for shard_addr in &remote_shards {
        builder = builder.remote_shard(*shard_addr);
    }
    let router = Arc::new(builder.build());
    for shard in router.shards().iter() {
        println!("shard {}: {}", shard.id(), shard.label());
    }
    let server = Server::bind_service(addr, Arc::clone(&router) as _)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {bound}");
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())
}

/// Talk the control-plane ops to a live router-backed server: admit shards
/// (`--add`, validated before entering the table), drain-and-remove shards
/// (`--remove`), then print the final membership table.
fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "addr add remove")?;
    let addr = flags.require("addr")?;
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    client.set_op_timeout(Some(Duration::from_secs(30)));
    for shard_addr in flags.all("add") {
        client
            .add_shard(shard_addr)
            .map_err(|e| format!("adding shard {shard_addr}: {e}"))?;
        println!("added {shard_addr}");
    }
    for id in flags.all("remove") {
        let id: u64 = id
            .parse()
            .map_err(|_| format!("--remove takes a shard id, got {id:?}"))?;
        client
            .remove_shard(id)
            .map_err(|e| format!("removing shard {id}: {e}"))?;
        println!("removed {id}");
    }
    let cluster = client
        .cluster_info()
        .map_err(|e| format!("cluster info: {e}"))?;
    println!("{} shard(s):", cluster.len());
    for shard in cluster {
        let state = match (shard.alive, shard.draining) {
            (_, true) => "draining",
            (true, false) => "alive",
            (false, false) => "dead",
        };
        println!(
            "  {:>3}  {:<24} {:<8} inflight {:>4}  routed {}",
            shard.id, shard.label, state, shard.inflight, shard.routed
        );
    }
    Ok(())
}

fn cmd_soak(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        "seed clients models local-shards shards remote-shards phase-ms deadline-ms \
         max-queue max-per-model assert out",
    )?;
    let defaults = serve::soak::SoakConfig::default();
    let config = serve::soak::SoakConfig {
        seed: flags.parsed("seed", defaults.seed)?,
        models: flags.parsed("models", defaults.models)?,
        clients: flags.parsed("clients", defaults.clients)?,
        phase: Duration::from_millis(flags.parsed("phase-ms", defaults.phase.as_millis() as u64)?),
        deadline_ms: flags.parsed("deadline-ms", defaults.deadline_ms)?,
        max_queue: flags.parsed("max-queue", defaults.max_queue)?,
        max_per_model: flags.parsed("max-per-model", defaults.max_per_model)?,
        // --shards is the historical spelling of --local-shards.
        local_shards: flags.parsed(
            "local-shards",
            flags.parsed("shards", defaults.local_shards)?,
        )?,
        remote_shards: flags.parsed("remote-shards", defaults.remote_shards)?,
    };
    let report = serve::soak::run_soak(&config)?;
    let json = report.to_json();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))?
        }
        None => println!("{json}"),
    }
    for phase in &report.phases {
        eprintln!(
            "{}: {} req, {} ok, {} overloaded, {} deadline, {:.0} rps, p99 {}us",
            phase.name,
            phase.requests,
            phase.ok,
            phase.overloaded,
            phase.deadline_exceeded,
            phase.rps,
            phase.p99_us
        );
    }
    let violations = report.violations();
    if flags.get("assert").map(str::parse) == Some(Ok(true)) && !violations.is_empty() {
        return Err(format!(
            "overload contract violated (seed {}):\n  {}",
            report.seed,
            violations.join("\n  ")
        ));
    }
    for v in &violations {
        eprintln!("tcca_serve: soak violation: {v}");
    }
    Ok(())
}

fn cmd_embed(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "model view out")?;
    let model_path = flags.require("model")?;
    let view_paths = flags.all("view");
    if view_paths.is_empty() {
        return Err("at least one --view CSV is required".into());
    }
    let model = load_model_file(model_path)?;
    if view_paths.len() != model.num_views() {
        return Err(format!(
            "model expects {} views, got {}",
            model.num_views(),
            view_paths.len()
        ));
    }
    let views = view_paths
        .iter()
        .map(|p| read_csv_matrix(p))
        .collect::<Result<Vec<_>, _>>()?;
    let z = model
        .transform(&views)
        .map_err(|e| format!("transform failed: {e}"))?;
    let csv = matrix_to_csv(&z);
    match flags.get("out") {
        Some(path) => std::fs::write(path, csv).map_err(|e| format!("writing {path}: {e}"))?,
        None => print!("{csv}"),
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "model")?;
    let path = flags.require("model")?;
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    let meta = mvcore::persist::read_meta(&mut reader).map_err(|e| e.to_string())?;
    println!("method:     {}", meta.method);
    println!("dim:        {}", meta.dim);
    println!("views:      {}", meta.num_views);
    println!("input kind: {:?}", meta.input_kind);
    println!("payload:    {} bytes", meta.payload_len);
    println!("checksum:   {:#010x}", meta.checksum);
    println!("version:    {}", meta.model_version);
    println!("parent crc: {:#010x}", meta.parent_crc);
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "addr refit")?;
    let addr = flags.require("addr")?;
    let mut client = serve::Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    if flags.get("refit").map(str::parse) == Some(Ok(true)) {
        client.refit().map_err(|e| format!("refit: {e}"))?;
        println!("refit triggered");
    }
    let counters = client.stats().map_err(|e| format!("stats: {e}"))?;
    if counters.is_empty() {
        println!("(no counters reported)");
    }
    for (name, value) in counters {
        println!("{name}: {value}");
    }
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, "out method instances rank")?;
    let dir = PathBuf::from(flags.require("out")?);
    let method = flags.get("method").unwrap_or("TCCA");
    let instances: usize = flags.parsed("instances", 60)?;
    let rank: usize = flags.parsed("rank", 2)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let data = datasets::secstr_dataset(&datasets::SecStrConfig {
        n_instances: instances,
        seed: 7,
        difficulty: 0.8,
    });
    let views: Vec<Matrix> = data
        .views()
        .iter()
        .map(|v| v.select_rows(&(0..10.min(v.rows())).collect::<Vec<_>>()))
        .collect();

    let registry = EstimatorRegistry::with_builtin();
    let spec = FitSpec::with_rank(rank)
        .epsilon(1e-2)
        .seed(7)
        .per_view_dim(8);
    let model = registry
        .fit(method, &views, &spec)
        .map_err(|e| format!("fitting {method}: {e}"))?;

    let name = method.to_lowercase().replace([' ', '(', ')'], "");
    let store = ModelStore::new(EstimatorRegistry::with_builtin());
    store
        .save(&dir, &name, model.as_ref())
        .map_err(|e| format!("saving: {e}"))?;
    for (p, v) in views.iter().enumerate() {
        let path = dir.join(format!("{name}.view{p}.csv"));
        std::fs::write(&path, matrix_to_csv(v))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "saved {name}.{} and {} view CSV(s) to {}",
        serve::MODEL_EXTENSION,
        views.len(),
        dir.display()
    );
    Ok(())
}

fn load_model_file(path: &str) -> Result<Box<dyn MultiViewModel>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    EstimatorRegistry::with_builtin()
        .load_model(&mut reader)
        .map_err(|e| format!("loading {path}: {e}"))
}

fn read_csv_matrix(path: &str) -> Result<Matrix, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let row = line
            .split(',')
            .map(|cell| {
                cell.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("{path}:{}: not a number: {cell:?}", lineno + 1))
            })
            .collect::<Result<Vec<f64>, _>>()?;
        rows.push(row);
    }
    Matrix::from_rows(&rows).map_err(|e| format!("{path}: {e}"))
}

fn matrix_to_csv(m: &Matrix) -> String {
    let mut out = String::new();
    for i in 0..m.rows() {
        let row: Vec<String> = m.row(i).iter().map(|v| format!("{v:?}")).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}
