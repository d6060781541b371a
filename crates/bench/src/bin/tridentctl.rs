//! `tridentctl` — run any workload under any policy and print a
//! `perf stat`-style report, locally or against a `tridentd` daemon.
//!
//! ```sh
//! tridentctl list
//! tridentctl run --workload Redis --policy Trident --scale 64 [--fragment]
//! tridentctl run --workload GUPS --policy Trident --trace-out run.jsonl
//! tridentctl run --workload GUPS --policy Trident --connect 127.0.0.1:7117
//! tridentctl jobs --connect 127.0.0.1:7117
//! tridentctl watch 3 --connect 127.0.0.1:7117
//! tridentctl metrics --connect 127.0.0.1:7117
//! tridentctl shutdown --connect 127.0.0.1:7117
//! ```
//!
//! With `--connect ADDR` the job travels as a [`trident_serve::proto`]
//! request and executes on the daemon's worker pool; without it the same
//! [`JobSpec`] runs in-process. Both paths call
//! `trident_serve::job::execute`, so the results are bit-identical.

use std::time::Duration;

use trident_bench::args::{ArgError, Args};
use trident_serve::proto::FaultSpec;
use trident_serve::{Client, JobResult, JobSpec, Request, Response, TenantJob};
use trident_sim::PolicyKind;
use trident_types::PageSize;
use trident_workloads::WorkloadSpec;

const USAGE: &str = "\
usage: tridentctl list
       tridentctl run --workload <name> --policy <name> [--scale N] [--samples N]
                      [--seed N] [--cell N] [--fragment]
                      [--geometry x86_64|sv48|aarch64]
                      [--trace-out FILE] [--profile-out FILE]
                      [--fault-seed N] [--fault SITE:PROB]...
                      [--audit] [--tenant NAME[,weight=N][,budget=N]
                                 [,prefer=LABEL][,optout][,pin=START+PAGES]]...
                      [--connect ADDR]
       tridentctl status <id> --connect ADDR
       tridentctl cancel <id> --connect ADDR
       tridentctl watch <id> --connect ADDR [--interval-ms N] [--timeout-ms N]
       tridentctl jobs --connect ADDR
       tridentctl metrics --connect ADDR
       tridentctl shutdown --connect ADDR";

/// `println!` that treats a closed stdout (e.g. `tridentctl jobs |
/// grep -q`, which exits on first match) as a normal early exit rather
/// than a broken-pipe panic, the way Unix filters behave.
macro_rules! println {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        #[allow(clippy::explicit_write)]
        let ok = writeln!(std::io::stdout(), $($arg)*).is_ok();
        if !ok {
            std::process::exit(0);
        }
    }};
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("tridentctl: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args = Args::from_env();
    let Some(command) = args.positional() else {
        usage()
    };
    let outcome = match command.as_str() {
        "list" => {
            list();
            args.finish()
        }
        "run" => run(args),
        "status" => remote_by_id(args, |id| Request::Status { id }),
        "cancel" => remote_by_id(args, |id| Request::Cancel { id }),
        "watch" => watch(args),
        "jobs" => remote(args, Request::List),
        "metrics" => remote(args, Request::Metrics),
        "shutdown" => remote(args, Request::Shutdown),
        _ => usage(),
    };
    if let Err(err) = outcome {
        err.exit(USAGE);
    }
}

fn list() {
    println!("workloads:");
    for w in WorkloadSpec::all() {
        println!(
            "  {:<10} {:>4} GB, {} threads{}",
            w.name,
            w.footprint_bytes >> 30,
            w.threads,
            if w.giant_sensitive {
                ", 1GB-sensitive"
            } else {
                ""
            }
        );
    }
    println!("policies:");
    for kind in PolicyKind::ALL {
        println!("  {:<16} ({})", kind.short_name(), kind.label());
    }
}

/// Builds a [`JobSpec`] from the `run` flags.
fn spec_from_args(args: &mut Args) -> Result<JobSpec, ArgError> {
    let workload = args.value("--workload")?;
    let policy = args.value("--policy")?;
    let (Some(workload), Some(policy)) = (workload, policy) else {
        usage()
    };
    let mut spec = JobSpec::new(&workload, &policy);
    spec.scale = args.parsed_or("--scale", spec.scale)?;
    spec.samples = args.parsed_or("--samples", spec.samples)?;
    spec.seed = args.parsed_or("--seed", spec.seed)?;
    spec.cell_index = args.parsed("--cell")?;
    spec.fragment = args.flag("--fragment");
    spec.trace_out = args.value("--trace-out")?;
    spec.profile_out = args.value("--profile-out")?;
    spec.geometry = args.value("--geometry")?;

    let fault_seed = args.parsed("--fault-seed")?;
    let mut rules = Vec::new();
    while let Some(raw) = args.value("--fault")? {
        let parsed = raw.split_once(':').and_then(|(site, prob)| {
            Some((
                trident_core::InjectSite::parse(site)?,
                prob.parse::<u16>().ok()?,
            ))
        });
        match parsed {
            Some(rule) => rules.push(rule),
            None => {
                return Err(ArgError::InvalidValue {
                    flag: "--fault".to_owned(),
                    value: raw,
                    expected: "SITE:PROB, e.g. alloc:100 (probability in thousandths)",
                })
            }
        }
    }
    if !rules.is_empty() || fault_seed.is_some() {
        spec.fault = Some(FaultSpec {
            seed: fault_seed.unwrap_or(spec.seed),
            rules,
        });
    }

    spec.audit = args.flag("--audit");
    while let Some(raw) = args.value("--tenant")? {
        match parse_tenant(&raw) {
            Some(tenant) => spec.tenants.push(tenant),
            None => {
                return Err(ArgError::InvalidValue {
                    flag: "--tenant".to_owned(),
                    value: raw,
                    expected: "NAME[,weight=N][,budget=N][,prefer=LABEL]\
                               [,optout][,pin=START+PAGES]",
                })
            }
        }
    }
    Ok(spec)
}

/// Parses one `--tenant` value: a workload name followed by
/// comma-separated policy knobs.
fn parse_tenant(raw: &str) -> Option<TenantJob> {
    let mut parts = raw.split(',');
    let name = parts.next()?;
    if name.is_empty() {
        return None;
    }
    let mut tenant = TenantJob::new(name);
    for part in parts {
        if part == "optout" {
            tenant.opt_out = true;
            continue;
        }
        let (key, value) = part.split_once('=')?;
        match key {
            "weight" => tenant.weight = value.parse().ok()?,
            "budget" => tenant.chunk_budget = Some(value.parse().ok()?),
            "prefer" => {
                // A rung label; the daemon validates it against the
                // job's geometry ladder at admission.
                tenant.prefer = Some(value.to_owned());
            }
            "pin" => {
                let (start, pages) = value.split_once('+')?;
                tenant.pins.push((start.parse().ok()?, pages.parse().ok()?));
            }
            _ => return None,
        }
    }
    Some(tenant)
}

fn run(mut args: Args) -> Result<(), ArgError> {
    let spec = spec_from_args(&mut args)?;
    let connect = args.value("--connect")?;
    args.finish()?;

    let result = match connect {
        Some(addr) => run_remote(&spec, &addr),
        None => match trident_serve::job::execute(&spec) {
            Ok(result) => result,
            Err(msg) => fail(msg),
        },
    };
    print_report(&spec, &result);
    Ok(())
}

/// Submits the job to a daemon and blocks for its result.
fn run_remote(spec: &JobSpec, addr: &str) -> JobResult {
    let mut client = connect(addr);
    let id = match request(&mut client, &Request::Submit(spec.clone())) {
        Response::Submitted { id } => id,
        other => fail(describe(&other)),
    };
    eprintln!("# submitted as job {id} on {addr}");
    match request(&mut client, &Request::Result { id }) {
        Response::Result { result, .. } => result,
        other => fail(describe(&other)),
    }
}

/// Subcommands that are pure protocol round-trips (`jobs`, `shutdown`).
fn remote(mut args: Args, req: Request) -> Result<(), ArgError> {
    let addr = args.value("--connect")?.unwrap_or_else(|| usage());
    args.finish()?;
    let response = request(&mut connect(&addr), &req);
    println!("{}", describe(&response));
    Ok(())
}

/// `watch <id>`: polls the daemon's per-tick progress table and prints
/// one line per change until the job reaches a terminal state.
fn watch(mut args: Args) -> Result<(), ArgError> {
    let id = match args.positional() {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| fail(format!("job id must be an integer, got {raw:?}"))),
        None => usage(),
    };
    let addr = args.value("--connect")?.unwrap_or_else(|| usage());
    let interval_ms: u64 = args.parsed_or("--interval-ms", 200)?;
    let timeout_ms: u64 = args.parsed_or("--timeout-ms", 10_000)?;
    args.finish()?;

    // A read deadline so a dead daemon yields a typed timeout instead
    // of blocking the watch forever.
    let mut client = connect(&addr);
    client
        .set_deadline(Duration::from_millis(timeout_ms.max(1)))
        .unwrap_or_else(|e| fail(e));
    let mut last = None;
    loop {
        let (state, progress) = match request(&mut client, &Request::Progress { id }) {
            Response::Progress {
                state, progress, ..
            } => (state, progress),
            other => fail(describe(&other)),
        };
        let line = render_progress(id, state, &progress);
        if last.as_ref() != Some(&line) {
            println!("{line}");
            last = Some(line);
        }
        if state.is_terminal() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval_ms.max(10)));
    }
}

/// One `watch` line: state, sample progress with a percentage when the
/// total is known, tick count, and the live 1GB FMFI.
fn render_progress(
    id: u64,
    state: trident_serve::JobState,
    p: &trident_serve::JobProgress,
) -> String {
    let pct = (100 * p.samples_done)
        .checked_div(p.samples_total)
        .map_or_else(String::new, |pct| format!(" ({pct}%)"));
    format!(
        "job {id}: {state}  samples {}/{}{pct}  ticks {}  FMFI(1GB) {}.{:03}",
        p.samples_done,
        p.samples_total,
        p.ticks,
        p.fmfi_milli / 1000,
        p.fmfi_milli % 1000,
    )
}

/// Subcommands addressing one job by id (`status <id>`, `cancel <id>`).
fn remote_by_id(mut args: Args, req: impl Fn(u64) -> Request) -> Result<(), ArgError> {
    let id = match args.positional() {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| fail(format!("job id must be an integer, got {raw:?}"))),
        None => usage(),
    };
    remote(args, req(id))
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")))
}

fn request(client: &mut Client, req: &Request) -> Response {
    match client.request(req) {
        Ok(Response::Error { code, message }) => {
            fail(format!("daemon refused ({code}): {message}"))
        }
        Ok(response) => response,
        Err(e) => fail(e),
    }
}

/// One line describing the daemon itself, appended to `status`/`jobs`.
fn describe_service(info: &trident_serve::ServiceInfo) -> String {
    let queues = info
        .queues
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(" ");
    format!(
        "daemon: {} workers{}, queue depth {} per shard, queued [{queues}]",
        info.workers,
        if info.paused { " (paused)" } else { "" },
        info.queue_depth,
    )
}

/// One line of human-readable text per non-result response.
fn describe(response: &Response) -> String {
    match response {
        Response::Submitted { id } => format!("submitted as job {id}"),
        Response::Status { id, state, service } => {
            format!("job {id}: {state}\n{}", describe_service(service))
        }
        Response::Result { id, .. } => format!("job {id}: done"),
        Response::Cancelled { id } => format!("job {id}: cancelled"),
        Response::Jobs { jobs, service } if jobs.is_empty() => {
            format!("no jobs\n{}", describe_service(service))
        }
        Response::Jobs { jobs, service } => {
            let mut lines: Vec<String> = jobs
                .iter()
                .map(|j| {
                    format!(
                        "{:>4}  {:<10} {:<14} {}",
                        j.id, j.state, j.policy, j.workload
                    )
                })
                .collect();
            lines.push(describe_service(service));
            lines.join("\n")
        }
        Response::Metrics { text } => text.trim_end().to_owned(),
        Response::Progress {
            id,
            state,
            progress,
        } => render_progress(*id, *state, progress),
        Response::ShuttingDown => "daemon is draining and will exit".to_owned(),
        Response::Error { code, message } => format!("error ({code}): {message}"),
    }
}

/// The `perf stat`-style report, rendered from the serializable
/// [`JobResult`] so local and remote runs print identically.
fn print_report(spec: &JobSpec, r: &JobResult) {
    let s = &r.snapshot;
    println!(
        "── {} under {} (scale 1/{}) ──",
        spec.workload, spec.policy, spec.scale
    );
    println!("memory mix:");
    for row in &r.rungs {
        println!("  {:>10}: {:>8} MB mapped", row.size, row.bytes >> 20);
    }
    let miss = if r.tlb_accesses == 0 {
        0.0
    } else {
        100.0 * r.walks as f64 / r.tlb_accesses as f64
    };
    println!(
        "tlb: {} accesses, {} walks ({miss:.2}% miss), {} walk cycles",
        r.tlb_accesses, r.walks, r.walk_cycles
    );
    // The result's rungs are in ladder order, so the last row is the
    // top rung and row index i is counter slot i.
    let top_rung = r.rungs.len().saturating_sub(1);
    let top_label = r.rungs.last().map_or("top", |row| row.size.as_str());
    println!(
        "faults: {} total ({} at {top_label}, mean {top_label} fault {})",
        s.total_faults(),
        s.faults[top_rung],
        s.mean_fault_ns(PageSize::new(top_rung))
            .map(|ns| format!("{:.2} ms", ns as f64 / 1e6))
            .unwrap_or_else(|| "n/a".into()),
    );
    let promoted = r
        .rungs
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, row)| format!("{} to {}", s.promotions[i], row.size))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "promotion: {promoted}; {} MB copied; {} MB exchanged (pv)",
        s.promotion_bytes_copied >> 20,
        s.pv_bytes_exchanged >> 20,
    );
    println!(
        "compaction: {}/{} successful runs, {} MB migrated",
        s.compaction_successes,
        s.compaction_attempts,
        s.compaction_bytes_copied >> 20,
    );
    println!(
        "bloat: {} pages added, {} recovered; daemon CPU {:.1} ms",
        s.bloat_pages,
        s.bloat_recovered_pages,
        s.daemon_ns as f64 / 1e6,
    );
    if r.tenants.len() > 1 {
        println!("tenants:");
        for t in &r.tenants {
            println!(
                "  {} {:<10} {:>8} samples, {:>7} walks, {:>10} walk cycles, \
                 FMFI(top) {}.{:03}, {} faults",
                t.tenant,
                t.workload,
                t.samples,
                t.walks,
                t.walk_cycles,
                t.fmfi_milli / 1000,
                t.fmfi_milli % 1000,
                t.faults,
            );
        }
    }
    if spec.audit {
        println!("audit: {} violations", r.violations);
    }
    if let (Some(lines), Some(path)) = (r.trace_lines, &spec.trace_out) {
        eprintln!("# trace: {lines} events -> {path}");
    }
    if let Some(path) = &spec.profile_out {
        eprintln!("# profile -> {path}");
    }
}
