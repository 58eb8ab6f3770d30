//! `BENCHMARK.json` as the single list of metric names, units, directions
//! and bounds; result files; and the A/A comparison built on them.

use crate::json::{parse, Value};
use crate::stats::{quartiles, spread};
use std::path::Path;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median a metric may worsen by; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the working directory (the command
    /// runs from the repository root) or, failing that, from beside
    /// the directory this package was built in.
    pub fn load() -> Result<Manifest, String> {
        let built_beside = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string("BENCHMARK.json")
            .or_else(|_| std::fs::read_to_string(built_beside))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Manifest::from_json(&parse(&text)?)
    }

    pub fn from_json(root: &Value) -> Result<Manifest, String> {
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            root.get(key).map(Value::as_arr).unwrap_or_default().iter().map(metric_def).collect()
        };
        let workloads = root
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
            .collect();
        Ok(Manifest {
            run_seconds: root.get("run_seconds").and_then(Value::as_f64).ok_or("run_seconds")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

fn metric_def(v: &Value) -> Result<MetricDef, String> {
    let text = |key: &str| {
        v.get(key).and_then(Value::as_str).ok_or_else(|| format!("metric without {key}: {v:?}"))
    };
    Ok(MetricDef {
        name: text("name")?.to_string(),
        unit: text("unit")?.to_string(),
        higher_is_better: text("better")? == "higher",
        bound: v.get("bound").and_then(Value::as_f64),
    })
}

/// The result line the contract fixes: `correct`, `attempted`,
/// `failed`, and each listed metric with its value and unit. A listed
/// metric the run did not produce is an error (the lists drifted).
pub fn result_line(
    defs: &[MetricDef],
    values: &[(String, f64)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let metrics = defs
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            let entry = Value::Obj(vec![
                ("value".into(), Value::Num(value)),
                ("unit".into(), Value::Str(def.unit.clone())),
            ]);
            Ok((def.name.clone(), entry))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Value::Obj(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render())
}

/// One metric's values over repeated runs.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRuns {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
}

/// Values of every metric of every workload over repeated runs.
#[derive(Clone, Debug, Default)]
pub struct ResultSet {
    /// (workload, its metrics) in run order.
    pub workloads: Vec<(String, Vec<MetricRuns>)>,
}

impl ResultSet {
    /// Folds one run's `metrics` object into the set.
    pub fn add(&mut self, workload: &str, metrics: &Value) {
        let at = match self.workloads.iter().position(|(w, _)| w == workload) {
            Some(at) => at,
            None => {
                self.workloads.push((workload.to_string(), Vec::new()));
                self.workloads.len() - 1
            }
        };
        let rows = &mut self.workloads[at].1;
        for (name, entry) in metrics.as_obj() {
            let value = entry.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            match rows.iter_mut().find(|row| row.name == *name) {
                Some(row) => row.values.push(value),
                None => {
                    let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
                    rows.push(MetricRuns { name: name.clone(), unit, values: vec![value] });
                }
            }
        }
    }

    pub fn values(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        let (_, rows) = self.workloads.iter().find(|(w, _)| w == workload)?;
        rows.iter().find(|row| row.name == metric).map(|row| row.values.as_slice())
    }

    pub fn to_json(&self, seed: u64, seconds: f64) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|(workload, rows)| {
                let rows = rows
                    .iter()
                    .map(|MetricRuns { name, unit, values }| {
                        let mut fields = vec![
                            ("unit".to_string(), Value::Str(unit.clone())),
                            ("median".to_string(), Value::Num(crate::stats::median(values))),
                        ];
                        if values.len() >= 2 {
                            let (q1, _, q3) = quartiles(values);
                            fields.push(("q1".into(), Value::Num(q1)));
                            fields.push(("q3".into(), Value::Num(q3)));
                        }
                        let values = values.iter().map(|&v| Value::Num(v)).collect();
                        fields.push(("values".into(), Value::Arr(values)));
                        (name.clone(), Value::Obj(fields))
                    })
                    .collect();
                (workload.clone(), Value::Obj(rows))
            })
            .collect();
        Value::Obj(vec![
            ("seed".into(), Value::Num(seed as f64)),
            ("seconds".into(), Value::Num(seconds)),
            ("workloads".into(), Value::Obj(workloads)),
        ])
    }

    pub fn from_file(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let root = parse(&text)?;
        let workloads = root
            .get("workloads")
            .ok_or_else(|| format!("{}: no workloads", path.display()))?
            .as_obj()
            .iter()
            .map(|(workload, rows)| {
                let rows = rows
                    .as_obj()
                    .iter()
                    .map(|(name, row)| {
                        let unit = row.get("unit").and_then(Value::as_str).unwrap_or("");
                        let values = row.get("values").map(Value::as_arr).unwrap_or_default();
                        MetricRuns {
                            name: name.clone(),
                            unit: unit.to_string(),
                            values: values.iter().filter_map(Value::as_f64).collect(),
                        }
                    })
                    .collect();
                (workload.clone(), rows)
            })
            .collect();
        Ok(ResultSet { workloads })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    /// Run-to-run spread wider than the bound: the runs cannot tell.
    Unresolved,
}

/// Applies a metric's bound to a baseline and a candidate.
pub fn verdict(def: &MetricDef, base: &[f64], candidate: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    if base.len() >= 2 && candidate.len() >= 2 && spread(base).max(spread(candidate)) > bound {
        return Verdict::Unresolved;
    }
    let (a, b) = (crate::stats::median(base), crate::stats::median(candidate));
    let worse_by = if def.higher_is_better { (a - b) / a } else { (b - a) / a };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Prints one row per workload × end-to-end metric; returns whether
/// any row is worse than its bound allows.
pub fn compare(manifest: &Manifest, base: &ResultSet, candidate: &ResultSet) -> bool {
    println!(
        "{:<14} {:<15} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "base", "candidate", "change", "bound", "spread_a", "spread_b"
    );
    let mut any_worse = false;
    for workload in &manifest.workloads {
        for def in &manifest.end_to_end {
            let (Some(a), Some(b)) =
                (base.values(workload, &def.name), candidate.values(workload, &def.name))
            else {
                println!("{workload:<14} {:<15} missing from a result file", def.name);
                any_worse = true;
                continue;
            };
            let v = verdict(def, a, b);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (crate::stats::median(a), crate::stats::median(b));
            let spread_of = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
            println!(
                "{workload:<14} {:<15} {ma:>14.3} {mb:>14.3} {:>+7.1}% {:>6.2} {:>7.1}% {:>7.1}%  {}",
                def.name,
                (mb - ma) / ma * 100.0,
                def.bound.unwrap_or(0.0),
                spread_of(a) * 100.0,
                spread_of(b) * 100.0,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread wider than bound)",
                }
            );
        }
    }
    any_worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.0];
        let up = [115.0, 116.0, 114.0, 115.0, 115.0];
        assert_eq!(verdict(&def(false, 0.10), &base, &up), Verdict::Worse);
        assert_eq!(verdict(&def(true, 0.10), &base, &up), Verdict::Within);
        assert_eq!(verdict(&def(false, 0.20), &base, &up), Verdict::Within);
        assert_eq!(verdict(&def(true, 0.10), &up, &base), Verdict::Worse);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&def(false, 0.10), &base, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn result_sets_round_trip_and_result_lines_need_every_metric() {
        let line = result_line(&[def(false, 0.1)], &[("m".into(), 1.25)], 10, 0).expect("line");
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"m":{"value":1.25,"unit":"u"}}}"#
        );
        assert!(result_line(&[def(false, 0.1)], &[], 10, 0).is_err());

        let mut set = ResultSet::default();
        let parsed = parse(&line).expect("own output parses");
        set.add("w", parsed.get("metrics").expect("metrics"));
        set.add("w", parsed.get("metrics").expect("metrics"));
        assert_eq!(set.values("w", "m"), Some(&[1.25, 1.25][..]));
        let path = std::env::temp_dir().join(format!("bench_stack_{}.json", std::process::id()));
        std::fs::write(&path, set.to_json(1, 12.0).render()).expect("write");
        let back = ResultSet::from_file(&path).expect("read back");
        std::fs::remove_file(&path).expect("remove");
        assert_eq!(back.values("w", "m"), set.values("w", "m"));
    }

    #[test]
    fn the_committed_manifest_parses_and_names_each_metric_once() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside benchmark/");
        let m = Manifest::from_json(&parse(&text).expect("valid JSON")).expect("manifest");
        assert_eq!(m.workloads.len(), crate::workloads::WORKLOADS.len());
        for (listed, (name, _)) in m.workloads.iter().zip(crate::workloads::WORKLOADS) {
            assert_eq!(listed, name);
        }
        assert!(m.end_to_end.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(m.end_to_end.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        let mut names: Vec<&str> =
            m.end_to_end.iter().chain(&m.per_layer).map(|d| d.name.as_str()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
    }
}
