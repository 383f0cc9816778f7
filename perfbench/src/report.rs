//! The run's output: human-readable lines describing the run, the metrics
//! by name with their units, and the final one-line JSON result. Nothing
//! is printed until every output check has passed, so a failed run
//! prints no numbers.

use crate::stats::Timing;

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// A descriptive line (run identity, per-cell trial counts).
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// One metric value.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// A timing distribution: metric `name` is the median and `name.p90`
    /// the 90th percentile; the sample count goes into a report line.
    pub fn timing(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let t = Timing::of(samples);
        self.metric(name, t.median, unit);
        self.metric(format!("{name}.p90"), t.p90, unit);
        self.line(format!(
            "timing {name} median {:.6} p90 {:.6} {unit} over {} samples",
            t.median, t.p90, t.n
        ));
    }

    /// Fail on any non-finite metric or duplicate name; the JSON result
    /// must only ever carry measured numbers.
    pub fn validate(&self) -> Result<(), String> {
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.0.as_str()).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("metric {} reported twice", w[0]));
        }
        match self.metrics.iter().find(|m| !m.1.is_finite()) {
            Some((name, v, _)) => Err(format!("metric {name} is not a finite number ({v})")),
            None => Ok(()),
        }
    }

    /// The metric lines and the final JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        for (name, v, unit) in &self.metrics {
            out.push_str(&format!("metric {name:<44} {v:>16.6} {unit}\n"));
        }
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.attempted,
            self.failed,
            fields.join(", ")
        ));
        out
    }

    /// The metrics as a JSON object body, for the run record file.
    pub fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("    \"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{\n{}\n  }}", fields.join(",\n"))
    }

    pub fn lines(&self) -> &[String] {
        &self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_json_result() {
        let mut r = Report::default();
        r.line("run: x");
        r.metric("wall_s", 1.25, "s");
        r.timing("lanes.batch_ms", &[1.0, 2.0, 3.0], "ms");
        r.attempted = 10;
        r.validate().unwrap();
        let out = r.render();
        let last = out.lines().last().unwrap();
        let doc = cobra_bench::Json::parse(last).unwrap();
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(10));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("wall_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            m.get("lanes.batch_ms.p90")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("ms")
        );
        assert!(m.get("lanes.batch_ms.n").is_none());
        assert!(
            out.contains("timing lanes.batch_ms median 2.000000 p90 2.800000 ms over 3 samples")
        );
    }

    #[test]
    fn non_finite_and_duplicate_metrics_are_rejected() {
        let mut r = Report::default();
        r.metric("a", f64::NAN, "s");
        assert!(r.validate().is_err());
        let mut r = Report::default();
        r.metric("a", 1.0, "s");
        r.metric("a", 2.0, "s");
        assert!(r.validate().is_err());
    }
}
