//! The planner's calibration tool: where the constants of `recommend`'s cost
//! model (`COST_MODEL` in `src/lib.rs`) come from, and the check that they
//! still hold on this machine.
//!
//! ```sh
//! cargo run --release --example algorithm_advisor             # ≤ 30 s slice of --check; prints, never fails
//! cargo run --release --example algorithm_advisor -- --check  # held-out grid; exits 1 outside the gate
//! cargo run --release --example algorithm_advisor -- --fit    # re-fit; prints the `const` block to paste
//! ```
//!
//! Every point is one request on one generated table. The four closed
//! algorithms are timed on it through explicit `.algorithm(a)` (best of two,
//! a deadline on each run) and compared with what `plan()` — the function
//! the session runs — estimated and picked. *Regret* is the picked
//! algorithm's time over the best of the four.
//!
//! `--fit` times the fit grid (T × D × C × Zipf S × rules R × `min_sup` M
//! from `ccube-data`'s knobs, plus whole / diced / projected / sliced
//! requests on the benchmark ladder's four generators) and the held-out
//! grid, solves one weighted least-squares fit of `ln(ms)` per algorithm
//! over `QueryPlan::inputs`, and then drops every input beyond the paper's
//! axes whose removal does not raise the held-out regret. `--check` uses
//! parameter values between the fit's, other seeds, Zipf up to 2.5, and the
//! same request shapes on the ladder under another seed.

use c_cubing::prelude::*;
use std::time::{Duration, Instant};

/// `QueryPlan::inputs` by column.
const INPUTS: [&str; 10] = [
    "1",
    "T = ln tuples",
    "D = dimensions",
    "L = mean ln cardinality",
    "P = mean top-value share",
    "M = ln min_sup",
    "D*L",
    "P*D",
    "P*T",
    "L*M",
];
/// The leading inputs are the paper's axes T, D, C, S and M; the fit never
/// drops them, so every estimate keeps scaling with the request's size.
const AXES: usize = 6;
/// A run this slow is cut off and counts as this slow.
const DEADLINE: Duration = Duration::from_secs(5);
/// How many grid points one ladder request weighs in the fit: the ladder
/// is what the benchmark serves, and its 52 requests would not be heard
/// among 486.
const LADDER_WEIGHT: f64 = 4.0;
/// Below this best time a ratio of two timings is mostly timer noise.
const RESOLVED_MS: f64 = 5.0;

type Weights = [[f64; INPUTS.len()]; 4];

/// One request shape on a table.
#[derive(Clone)]
struct Shape {
    name: String,
    min_sup: u64,
    dims: Option<DimMask>,
    dice: Vec<(usize, Vec<u32>)>,
}

impl Shape {
    fn full(min_sup: u64) -> Shape {
        Shape {
            name: "full".into(),
            min_sup,
            dims: None,
            dice: Vec::new(),
        }
    }

    fn query<'s>(&self, session: &'s mut CubeSession) -> CubeQuery<'s> {
        let mut query = session.query().min_sup(self.min_sup);
        if let Some(mask) = self.dims {
            query = query.dims(mask);
        }
        for (dim, values) in &self.dice {
            query = query.dice(*dim, values);
        }
        query
    }
}

/// One table to generate and the requests to time on it.
struct Case {
    label: String,
    source: Source,
    /// Whole-table requests at these thresholds; none for a ladder table,
    /// which gets the [`dashboard`] shapes and [`LADDER_WEIGHT`].
    min_sups: Vec<u64>,
}

enum Source {
    Synthetic(SyntheticSpec),
    Weather(WeatherSpec),
}

/// One timed request: what the planner saw and said, and what was measured.
struct Point {
    label: String,
    plan: QueryPlan,
    ms: [f64; 4],
    weight: f64,
}

impl Point {
    fn best_ms(&self) -> f64 {
        self.ms.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Measured time of candidate `a` over the best of the four.
    fn regret_of(&self, a: usize) -> f64 {
        self.ms[a] / self.best_ms()
    }

    /// The candidate `weights` rates cheapest (the first of equals, like
    /// the planner).
    fn pick(&self, weights: &Weights) -> usize {
        // Fails to compile when `INPUTS` and `QueryPlan::inputs` disagree.
        let inputs: &[f64; INPUTS.len()] = &self.plan.inputs;
        let ln_ms = |a: usize| -> f64 { weights[a].iter().zip(inputs).map(|(w, x)| w * x).sum() };
        (0..4)
            .min_by(|&a, &b| ln_ms(a).total_cmp(&ln_ms(b)))
            .expect("four candidates")
    }

    /// The candidate the checked-in model picked.
    fn planned(&self) -> usize {
        let picked = self.plan.algorithm;
        (self.plan.estimates.iter())
            .position(|(a, _)| *a == picked)
            .expect("a closed plan picks one of its candidates")
    }
}

/// A generated grid: every combination of the listed values, one seed per
/// table, `R` reached through `RuleSet::with_dependence` (the label carries
/// the dependence *achieved*: generation stops at 4 096 rules).
fn grid(
    tuples: &[usize],
    dims: &[usize],
    cards: &[u32],
    zipfs: &[f64],
    rules: &[f64],
    min_sups: &[u64],
    seed: u64,
) -> Vec<Case> {
    let mut cases = Vec::new();
    for &t in tuples {
        for &d in dims {
            for &c in cards {
                for &s in zipfs {
                    for &r in rules {
                        let seed = seed + cases.len() as u64;
                        let mut spec = SyntheticSpec::uniform(t, d, c, s, seed);
                        let mut achieved = 0.0;
                        if r > 0.0 {
                            let set = RuleSet::with_dependence(&spec.cards, r, seed ^ 0x5eed);
                            achieved = set.dependence(&spec.cards);
                            spec = spec.with_rules(set);
                        }
                        cases.push(Case {
                            label: format!("T={t} D={d} C={c} S={s} R={achieved:.2}"),
                            source: Source::Synthetic(spec),
                            min_sups: min_sups.to_vec(),
                        });
                    }
                }
            }
        }
    }
    cases
}

/// The benchmark ladder's four generators (`benchmark/src/ladder.rs`) at
/// its 25 000 rows.
fn ladder(seed: u64) -> Vec<Case> {
    let synthetic = |dims, card, zipf| {
        Source::Synthetic(SyntheticSpec::uniform(25_000, dims, card, zipf, seed))
    };
    [
        ("skew1", synthetic(8, 100, 1.0)),
        ("skew2", synthetic(8, 100, 2.0)),
        ("sparse", synthetic(6, 1000, 1.5)),
        ("weather", Source::Weather(WeatherSpec::new(25_000, seed))),
    ]
    .into_iter()
    .map(|(name, source)| Case {
        label: format!("ladder {name}"),
        source,
        min_sups: Vec::new(),
    })
    .collect()
}

/// The request shapes of the benchmark's workloads: the whole cube at
/// three thresholds, dices keeping a tenth of the table along one dimension
/// or two, projections onto four or five dimensions, single-value slices.
fn dashboard(table: &Table) -> Vec<Shape> {
    // Values of `dim`, most frequent first.
    let ranked = |dim: usize| {
        let freq = table.freq(dim);
        let mut values: Vec<u32> = (0..freq.len() as u32).collect();
        values.sort_by_key(|&v| (std::cmp::Reverse(freq[v as usize]), v));
        (values, freq)
    };
    // The most frequent values of `dim`, as few as cover `share` of the rows.
    let covering = |dim: usize, share: f64| {
        let (mut values, freq) = ranked(dim);
        let mut covered = 0.0;
        let enough = values.iter().position(|&v| {
            covered += f64::from(freq[v as usize]);
            covered >= share * table.rows() as f64
        });
        values.truncate(enough.map_or(values.len(), |i| i + 1));
        values
    };
    let last = table.dims() - 1;
    let mut shapes = [2, 8, 64].map(Shape::full).to_vec();
    for dim in [0, 1, last] {
        shapes.push(Shape {
            name: format!("dice 10% d{dim}"),
            dice: vec![(dim, covering(dim, 0.1))],
            ..Shape::full(32)
        });
    }
    shapes.push(Shape {
        name: format!("dice 10% d0 d{last}"),
        dice: [0, last]
            .map(|dim| (dim, covering(dim, 0.1f64.sqrt())))
            .to_vec(),
        ..Shape::full(32)
    });
    for (mask, min_sup) in [
        (0b1111, 4),
        (0b1111 << (table.dims() - 4), 4),
        (0b1_1111, 32),
    ] {
        shapes.push(Shape {
            name: format!("project {mask:#b}"),
            dims: Some(DimMask(mask)),
            ..Shape::full(min_sup)
        });
    }
    for (dim, rank) in [(0, 0), (0, 8), (1, 8)] {
        shapes.push(Shape {
            name: format!("slice d{dim} rank {rank}"),
            dice: vec![(dim, vec![ranked(dim).0[rank]])],
            ..Shape::full(8)
        });
    }
    shapes
}

fn fit_cases() -> Vec<Case> {
    let mut cases = grid(
        &[5_000, 25_000, 100_000],
        &[4, 6, 8],
        &[20, 100, 1000],
        &[0.0, 1.0, 2.0],
        &[0.0, 2.0],
        &[2, 8, 64],
        1_000,
    );
    cases.extend(ladder(4_242));
    cases
}

fn held_out_cases() -> Vec<Case> {
    let mut cases = grid(
        &[12_000, 50_000],
        &[5, 7],
        &[50, 300],
        &[0.5, 1.5, 2.5],
        &[0.0, 1.0],
        &[4, 24],
        9_000,
    );
    cases.extend(ladder(777_000));
    cases
}

/// Time the four closed algorithms on every request of `cases`, until
/// `budget` (if any) has passed.
fn measure(cases: Vec<Case>, budget: Option<Duration>) -> Vec<Point> {
    let started = Instant::now();
    let mut points = Vec::new();
    for case in cases {
        if budget.is_some_and(|b| started.elapsed() >= b) {
            break;
        }
        let table = match &case.source {
            Source::Synthetic(spec) => spec.generate(),
            Source::Weather(spec) => spec.generate(),
        };
        let (shapes, weight) = if case.min_sups.is_empty() {
            (dashboard(&table), LADDER_WEIGHT)
        } else {
            (case.min_sups.iter().map(|&m| Shape::full(m)).collect(), 1.0)
        };
        let mut session = CubeSession::new(table).expect("ordinary table");
        for shape in &shapes {
            let plan = shape.query(&mut session).plan();
            let ms = plan.estimates.map(|(algorithm, _)| {
                let mut best = f64::INFINITY;
                for _ in 0..2 {
                    let query = shape.query(&mut session).algorithm(algorithm);
                    let start = Instant::now();
                    let run = query.deadline(DEADLINE).stats();
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    best = best.min(if run.is_ok() { ms } else { f64::INFINITY });
                }
                best.min(DEADLINE.as_secs_f64() * 1e3)
            });
            points.push(Point {
                label: format!("{} {} M={}", case.label, shape.name, shape.min_sup),
                plan,
                ms,
                weight,
            });
        }
    }
    points
}

/// Solve `a x = b` by Gaussian elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for i in 0..n {
        let pivot = (i..n)
            .max_by(|&p, &q| a[p][i].abs().total_cmp(&a[q][i].abs()))
            .expect("non-empty");
        a.swap(i, pivot);
        b.swap(i, pivot);
        let (pivot_row, below) = a[i..].split_first_mut().expect("i < n");
        for (row, k) in below.iter_mut().zip(i + 1..) {
            let f = row[i] / pivot_row[i];
            for (x, p) in row[i..].iter_mut().zip(&pivot_row[i..]) {
                *x -= f * p;
            }
            b[k] -= f * b[i];
        }
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let known: f64 = (i + 1..n).map(|j| a[i][j] * x[j]).sum();
        x[i] = (b[i] - known) / a[i][i];
    }
    x
}

/// Weighted least squares of `ln(ms)` over the inputs `keep` lets through,
/// one fit per algorithm (the normal equations; runs cut off at the
/// deadline have no time to fit and are left out). Dropped inputs weigh 0.
fn least_squares(points: &[Point], keep: &[bool; INPUTS.len()]) -> Weights {
    let cols: Vec<usize> = (0..INPUTS.len()).filter(|&c| keep[c]).collect();
    let mut weights = [[0.0; INPUTS.len()]; 4];
    for (a, row) in weights.iter_mut().enumerate() {
        let n = cols.len();
        let (mut xtx, mut xty) = (vec![vec![0.0; n]; n], vec![0.0; n]);
        let timed = (points.iter()).filter(|p| p.ms[a] < DEADLINE.as_secs_f64() * 1e3);
        for p in timed {
            for (i, &ci) in cols.iter().enumerate() {
                xty[i] += p.weight * p.plan.inputs[ci] * p.ms[a].ln();
                for (j, &cj) in cols.iter().enumerate() {
                    xtx[i][j] += p.weight * p.plan.inputs[ci] * p.plan.inputs[cj];
                }
            }
        }
        // A whisker of ridge keeps near-collinear inputs from blowing up.
        for (i, r) in xtx.iter_mut().enumerate() {
            r[i] *= 1.0 + 1e-9;
        }
        for (c, w) in cols.iter().zip(solve(xtx, xty)) {
            row[*c] = w;
        }
    }
    weights
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len().max(1) as f64).exp()
}

/// The `q`-quantile of `v` (nearest rank below).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

/// Regret of a policy over `points`: `(geomean over all, p95 and max over
/// the points whose best algorithm takes at least RESOLVED_MS)`.
fn regret(points: &[Point], policy: impl Fn(&Point) -> usize) -> (f64, f64, f64) {
    let all: Vec<f64> = points.iter().map(|p| p.regret_of(policy(p))).collect();
    let resolved: Vec<f64> = (points.iter())
        .filter(|p| p.best_ms() >= RESOLVED_MS)
        .map(|p| p.regret_of(policy(p)))
        .collect();
    if resolved.is_empty() {
        return (geomean(&all), 1.0, 1.0);
    }
    (
        geomean(&all),
        quantile(&resolved, 0.95),
        quantile(&resolved, 1.0),
    )
}

fn print_regret(name: &str, (geomean, p95, max): (f64, f64, f64)) {
    println!("  {name:<24} geomean {geomean:.3}   p95 {p95:.2}   max {max:.2}   (p95, max: best >= {RESOLVED_MS} ms)");
}

/// Print every point and the regret table; `false` if the checked-in model
/// is outside its gate.
fn report(points: &[Point]) -> bool {
    println!("per request: picked algorithm, regret, then estimate / measured ms per candidate");
    for p in points {
        print!(
            "{:<44} {:<13} {:>5.2} |",
            p.label,
            p.plan.algorithm.name(),
            p.regret_of(p.planned())
        );
        for ((algorithm, estimate), ms) in p.plan.estimates.iter().zip(p.ms) {
            print!(" {} {estimate:.1}/{ms:.1}", algorithm.name());
        }
        println!();
    }
    println!(
        "\nregret (picked / best measured) over {} requests",
        points.len()
    );
    let model = regret(points, Point::planned);
    print_regret("planner (checked in)", model);
    let mut beats_every_constant = true;
    for a in 0..4 {
        let always = regret(points, |_| a);
        let name = points[0].plan.estimates[a].0.name();
        print_regret(&format!("always {name}"), always);
        beats_every_constant &= model.0 < always.0;
    }
    let (geomean, p95, max) = model;
    geomean <= 1.10 && p95 <= 1.5 && max <= 2.0 && beats_every_constant
}

/// Backward elimination: starting from every input, keep dropping the
/// non-axis input whose removal lowers the held-out regret most, until
/// every removal would raise it.
fn fit(points: &[Point], held_out: &[Point]) -> Weights {
    let score = |keep: &[bool; INPUTS.len()]| {
        let weights = least_squares(points, keep);
        regret(held_out, |p| p.pick(&weights)).0
    };
    let mut keep = [true; INPUTS.len()];
    let mut current = score(&keep);
    loop {
        let dropped = (AXES..INPUTS.len())
            .filter(|&c| keep[c])
            .map(|c| {
                let mut without = keep;
                without[c] = false;
                (score(&without), c)
            })
            .min_by(|x, y| x.0.total_cmp(&y.0));
        match dropped {
            Some((regret, c)) if regret <= current => {
                println!(
                    "dropped `{}`: held-out regret {current:.4} -> {regret:.4}",
                    INPUTS[c]
                );
                keep[c] = false;
                current = regret;
            }
            _ => break,
        }
    }
    least_squares(points, &keep)
}

fn print_model(weights: &Weights, points: &[Point]) {
    println!("\n// BEGIN GENERATED by `cargo run --release --example algorithm_advisor -- --fit`");
    println!("// (paste its output over this block; never edit a number by hand).");
    println!("/// `ln(estimated milliseconds)` of each [`CLOSED`] algorithm is the dot");
    println!("/// product of its row with [`PlanShape::inputs`]. Columns:");
    for (c, name) in INPUTS.iter().enumerate() {
        let dropped = weights.iter().all(|row| row[c] == 0.0);
        let note = if dropped { " (dropped by the fit)" } else { "" };
        println!("/// {c:>2}. `{name}`{note}");
    }
    println!("#[rustfmt::skip]");
    println!("const COST_MODEL: [[f64; MODEL_INPUTS]; 4] = [");
    for (row, (algorithm, _)) in weights.iter().zip(points[0].plan.estimates) {
        println!("    // {}", algorithm.name());
        let cells: Vec<String> = row.iter().map(|w| format!("{w:.5}")).collect();
        println!("    [{}],", cells.join(", "));
    }
    println!("];");
    println!("// END GENERATED");
}

fn main() {
    let mode = std::env::args().nth(1);
    match mode.as_deref() {
        None => {
            // A slice the smoke job can afford: every seventh held-out
            // case, then the ladder, for at most 25 s.
            let mut cases = held_out_cases();
            let ladder = cases.split_off(cases.len() - 4);
            let mut slice: Vec<Case> = cases.into_iter().step_by(7).collect();
            slice.extend(ladder);
            report(&measure(slice, Some(Duration::from_secs(25))));
        }
        Some("--check") => {
            if !report(&measure(held_out_cases(), None)) {
                eprintln!(
                    "planner outside its gate: regret geomean <= 1.10 and below every \
                     constant policy's; p95 <= 1.5 and max <= 2.0 where best >= {RESOLVED_MS} ms"
                );
                std::process::exit(1);
            }
        }
        Some("--fit") => {
            let points = measure(fit_cases(), None);
            let held_out = measure(held_out_cases(), None);
            let weights = fit(&points, &held_out);
            for (name, set) in [("fit grid", &points), ("held-out grid", &held_out)] {
                println!("\n{name}, {} requests", set.len());
                print_regret("this fit", regret(set, |p| p.pick(&weights)));
                print_regret("planner (checked in)", regret(set, Point::planned));
            }
            println!("\npicks on the ladder: this fit / checked in");
            for p in points.iter().chain(&held_out).filter(|p| p.weight > 1.0) {
                let (new, old) = (p.pick(&weights), p.planned());
                let name = |a: usize| p.plan.estimates[a].0.name();
                let mark = if new == old { "" } else { "   <- differs" };
                println!("  {:<44} {} / {}{mark}", p.label, name(new), name(old));
            }
            print_model(&weights, &points);
        }
        Some(other) => {
            eprintln!("error: unknown flag `{other}` (use --fit, --check, or no flag)");
            std::process::exit(1);
        }
    }
}
