//! The benchmark's instruments must not change what they measure: a cell
//! run under the timed policy wrapper and the layer recorder computes the
//! same measurement as a plain `.policy(kind)` build, and a job answered
//! over the service transport equals `job::execute` of the same spec.

use std::sync::Arc;

use trident_perfbench::grid::{self, run_plain, run_traced, GridCell};
use trident_perfbench::report::Layers;
use trident_perfbench::service::{job_mix, run_job};
use trident_serve::service::{Service, ServiceConfig};
use trident_serve::{job, serve_tcp, Client, Request};

/// The third cell of a grid draw (a Trident configuration in every
/// grid), with a short measurement phase so the test stays quick.
fn short_cell(mut cells: Vec<GridCell>) -> GridCell {
    let mut cell = cells.swap_remove(2);
    let config = match &mut cell {
        GridCell::Native(c) => &mut c.config,
        GridCell::Virt(c) => &mut c.config,
    };
    config.measure_samples = 3_000;
    config.measure_tick_every = 500;
    cell
}

#[test]
fn instrumented_native_cells_measure_like_plain_builds() {
    for cells in [grid::native_access(7, 0), grid::fragmented_mm(7, 0)] {
        let cell = short_cell(cells);
        let mut layers = Layers::default();
        let traced = run_traced(&cell, &mut layers).expect("instrumented run");
        assert_eq!(run_plain(&cell).expect("plain run"), traced, "{cell:?}");
        assert_eq!(layers.sim_cells, 1);
        assert!(layers.policy.fault_calls > 0, "the wrapper saw the faults");
        assert!(layers.events.events > 0, "the recorder saw the events");
        assert_eq!(
            layers.samples.0, layers.accesses.0,
            "every replayed sample was accessed"
        );
    }
}

#[test]
fn instrumented_nested_cell_measures_like_a_plain_launch() {
    let cell = short_cell(grid::nested_virt(7, 0));
    let mut layers = Layers::default();
    let traced = run_traced(&cell, &mut layers).expect("instrumented run");
    assert_eq!(run_plain(&cell).expect("plain run"), traced, "{cell:?}");
    assert_eq!(layers.virt_cells, 1);
    assert!(layers.events.events > 0);
    assert!(
        layers.translations.0 > 0,
        "replayed accesses reached the TLB"
    );
}

#[test]
fn daemon_job_results_equal_local_execution() {
    let service = Arc::new(Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 4,
        start_paused: false,
    }));
    let server = serve_tcp(Arc::clone(&service), "127.0.0.1:0").expect("listen");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mix = job_mix(7);
    // A plain job and a profiled one with a trace ring.
    for spec in [&mix[0], &mix[3]] {
        let run = run_job(&mut client, spec).expect("job answered");
        assert_eq!(
            run.result,
            job::execute(spec).expect("local run"),
            "{spec:?}"
        );
    }
    client
        .request(&Request::Shutdown)
        .expect("shutdown answered");
    drop(client);
    server.join().expect("server stopped");
}
