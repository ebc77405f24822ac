//! The bounded multi-dataset scheduler behind `--jobs`.
//!
//! The paper's analyses repeat over many datasets — nine Table 3
//! captures, five comparison runs, eighteen Figure 3 months — and every
//! run is independent. [`run_tasks`] executes a list of labelled tasks
//! on at most `jobs` worker threads (a shared work index, no
//! oversubscription beyond the cap) and returns results **in input
//! order**, so downstream rendering is byte-identical to a serial run
//! for any job count. [`run_suite`] specializes it to dataset specs.
//!
//! Each task gets its own `obs` stage row (via `stage_owned`), so
//! `--stats` shows per-dataset wall time and throughput whichever way
//! the suite was scheduled.

use crate::experiments::DatasetRun;
use crate::pipeline::{available_cores, run_spec_with, PipelineOpts};
use simnet::scenario::{DatasetSpec, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run labelled tasks on up to `jobs` worker threads; results come back
/// in input order. `items(&result)` feeds each task's `obs` stage row
/// (return 0 when there is no natural record count).
///
/// `jobs <= 1` runs everything inline on the calling thread, bit-for-bit
/// the old serial behaviour.
pub fn run_tasks<T, F, I>(tasks: Vec<(String, F)>, jobs: usize, items: I) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
    I: Fn(&T) -> u64 + Sync,
{
    let jobs = jobs.max(1).min(tasks.len().max(1));
    if jobs == 1 {
        return tasks
            .into_iter()
            .map(|(label, task)| {
                let mut stage = obs::stage_owned(label);
                let out = task();
                stage.add_items(items(&out));
                out
            })
            .collect();
    }

    let n = tasks.len();
    // Slots the workers drain via a shared index: each task is taken
    // exactly once, each result lands back in its input slot.
    let work: Vec<Mutex<Option<(String, F)>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let (work_ref, results_ref, next_ref, items_ref) = (&work, &results, &next, &items);

    crossbeam::thread::scope(|scope| {
        for worker in 0..jobs {
            scope.spawn(move |_| {
                // busy = inside a task; the claim/bookkeeping gaps in
                // between are idle, so the gauge exposes scheduling
                // efficiency alongside the per-task stage rows
                let mut util = obs::Utilization::new(obs::gauge(
                    &format!("suite_worker{worker}_busy_permille"),
                    "suite worker busy fraction (permille, windowed)",
                ));
                loop {
                    let wait = std::time::Instant::now();
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        util.idle(wait.elapsed());
                        break;
                    }
                    let (label, task) = work_ref[i]
                        .lock()
                        .expect("suite work slot")
                        .take()
                        .expect("each slot taken once");
                    util.idle(wait.elapsed());
                    let run = std::time::Instant::now();
                    let mut stage = obs::stage_owned(label);
                    let out = task();
                    stage.add_items(items_ref(&out));
                    *results_ref[i].lock().expect("suite result slot") = Some(out);
                    util.busy(run.elapsed());
                }
            });
        }
    })
    .expect("suite workers do not panic");

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("suite result lock")
                .expect("every task ran")
        })
        .collect()
}

/// How a multi-dataset command shares the machine between its `tasks`
/// datasets: how many run at once, and the pipeline options each runs
/// under. A given `jobs` is that many in flight; a worker count in
/// `opts` alone is one dataset at a time on that many workers. With
/// nothing set the datasets take the cores first — they are
/// independent, with nothing to merge — and wherever `opts` leaves the
/// workers open each run gets an equal share of the cores, so datasets
/// in flight × workers per dataset stays within the core count.
pub fn share_machine(opts: &PipelineOpts, jobs: usize, tasks: usize) -> (usize, PipelineOpts) {
    let cores = available_cores();
    let workers_open = opts.workers == 0;
    let in_flight = match jobs {
        0 if workers_open => cores,
        0 => 1,
        n => n,
    }
    .min(tasks.max(1));
    let mut opts = opts.clone();
    if workers_open {
        opts.workers = (cores / in_flight).max(1);
    }
    (in_flight, opts)
}

/// Generate + analyze each spec, `jobs` datasets in flight (0: as
/// [`share_machine`] has it), results in spec order.
pub fn run_suite(
    specs: Vec<DatasetSpec>,
    scale: Scale,
    seed: u64,
    opts: &PipelineOpts,
    jobs: usize,
) -> Vec<DatasetRun> {
    let (jobs, opts) = share_machine(opts, jobs, specs.len());
    let tasks = specs
        .into_iter()
        .map(|spec| {
            let label = format!("suite.{}", spec.id());
            let opts = &opts;
            (label, move || run_spec_with(spec, scale, seed, opts))
        })
        .collect();
    run_tasks(tasks, jobs, |run: &DatasetRun| run.ingest_stats.rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;

    #[test]
    fn results_come_back_in_input_order_for_any_job_count() {
        let tasks = |n: usize| {
            (0..n)
                .map(|i| {
                    (format!("suite.t{i}"), move || {
                        // stagger so late slots finish first under parallelism
                        std::thread::sleep(std::time::Duration::from_millis((n - i) as u64 * 3));
                        i
                    })
                })
                .collect::<Vec<_>>()
        };
        for jobs in [1, 2, 4, 9] {
            let out = run_tasks(tasks(6), jobs, |_| 0);
            assert_eq!(out, vec![0, 1, 2, 3, 4, 5], "jobs={jobs}");
        }
    }

    #[test]
    fn suite_matches_serial_runs() {
        let specs = vec![dataset(Vantage::Nz, 2020), dataset(Vantage::Nl, 2018)];
        let serial = run_suite(
            specs.clone(),
            Scale::tiny(),
            11,
            &PipelineOpts::default(),
            1,
        );
        let parallel = run_suite(specs, Scale::tiny(), 11, &PipelineOpts::default(), 4);
        assert_eq!(serial.len(), 2);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.id, p.id);
            assert_eq!(s.ingest_stats, p.ingest_stats);
            assert_eq!(s.analysis.total_queries, p.analysis.total_queries);
            assert_eq!(s.analysis.cloud_share(), p.analysis.cloud_share());
        }
    }
}
