//! Output checks and failure accounting. Every check returns `Err` with a
//! reason; a [`Tally`] counts each checked operation as attempted and,
//! on any error, as failed.

use vc_obs::Json;
use vc_workload::GroundTruth;

/// Attempted / failed counts for one run, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `outcome` is an error.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(e);
            }
        }
    }

    /// Counts a failed check that is not an operation of its own (a set-up
    /// pass or an end-of-run comparison): the run's last operation fails.
    pub fn fail_last(&mut self, reason: String) {
        if self.attempted == 0 {
            self.attempted = 1;
        }
        if self.failed < self.attempted {
            self.failed += 1;
        }
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One row of a findings CSV.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub file: String,
    pub line: u32,
    pub function: String,
    pub variable: String,
    pub scenario: String,
}

const HEADER: &str =
    "rank,file,line,function,variable,scenario,author,familiarity,cross_scope,low_confidence";

/// Parses `vcheck`'s findings CSV (RFC 4180 quoting).
pub fn parse_csv(text: &str) -> Result<Vec<Row>, String> {
    let mut records = split_records(text)?.into_iter();
    match records.next() {
        Some(h) if h.join(",") == HEADER => {}
        other => return Err(format!("unexpected CSV header {other:?}")),
    }
    records
        .map(|f| {
            if f.len() != 10 {
                return Err(format!("CSV row with {} fields: {f:?}", f.len()));
            }
            Ok(Row {
                file: f[1].clone(),
                line: f[2].parse().map_err(|_| format!("bad line in {f:?}"))?,
                function: f[3].clone(),
                variable: f[4].clone(),
                scenario: f[5].clone(),
            })
        })
        .collect()
}

fn split_records(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut out = Vec::new();
    let mut record = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            (true, '"') => quoted = false,
            (true, c) => field.push(c),
            (false, '"') if field.is_empty() => quoted = true,
            (false, ',') => record.push(std::mem::take(&mut field)),
            (false, '\n') => {
                record.push(std::mem::take(&mut field));
                out.push(std::mem::take(&mut record));
            }
            (false, '\r') => {}
            (false, c) => field.push(c),
        }
    }
    if quoted {
        return Err("unterminated quoted CSV field".into());
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        out.push(record);
    }
    Ok(out)
}

/// Scores a scan's findings against the generator's ground truth: the
/// number reported and the number of those that are real bugs must both
/// match the profile's Table 2 counts.
pub fn score_scan(
    csv: &str,
    truth: &GroundTruth,
    expect_reported: usize,
    expect_confirmed: usize,
) -> Result<(), String> {
    let rows = parse_csv(csv)?;
    let confirmed = rows
        .iter()
        .filter(|r| truth.is_confirmed_bug(&r.function))
        .count();
    if rows.len() != expect_reported || confirmed != expect_confirmed {
        return Err(format!(
            "reported/confirmed {}/{confirmed}, ground truth expects \
             {expect_reported}/{expect_confirmed}",
            rows.len()
        ));
    }
    Ok(())
}

/// Checks a `scan`/`update` reply: `ok`, no deadline overrun, and a funnel
/// that balances (`cross_scope = pruned + reported <= raw`, `reported` =
/// rows in the CSV). Returns the reply's CSV.
pub fn check_scan_reply(reply: &Json) -> Result<&str, String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("error reply: {}", short(reply)));
    }
    if reply.get("deadline_exceeded").and_then(Json::as_bool) != Some(false) {
        return Err("reply exceeded its deadline".into());
    }
    let csv = reply
        .get("csv")
        .and_then(Json::as_str)
        .ok_or("reply without csv")?;
    let funnel = |k: &str| {
        reply
            .get("funnel")
            .and_then(|f| f.get(k))
            .and_then(Json::as_i64)
            .ok_or(format!("reply funnel without {k}"))
    };
    let (raw, cross, pruned, reported) = (
        funnel("raw")?,
        funnel("cross_scope")?,
        funnel("pruned")?,
        funnel("reported")?,
    );
    if cross != pruned + reported || cross > raw {
        return Err(format!(
            "funnel does not balance: raw {raw}, cross_scope {cross}, pruned {pruned}, \
             reported {reported}"
        ));
    }
    let rows = parse_csv(csv)?.len() as i64;
    if rows != reported {
        return Err(format!("funnel reports {reported} rows, csv has {rows}"));
    }
    Ok(csv)
}

/// Whether the reply's `delta.<class>` list holds a finding in `function`
/// on `variable`.
pub fn delta_has(reply: &Json, class: &str, function: &str, variable: &str) -> bool {
    reply
        .get("delta")
        .and_then(|d| d.get(class))
        .and_then(Json::as_arr)
        .is_some_and(|items| {
            items.iter().any(|f| {
                f.get("function").and_then(Json::as_str) == Some(function)
                    && f.get("variable").and_then(Json::as_str) == Some(variable)
            })
        })
}

/// Number of findings in the reply's `delta.<class>` list.
pub fn delta_len(reply: &Json, class: &str) -> usize {
    reply
        .get("delta")
        .and_then(|d| d.get(class))
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len)
}

fn short(j: &Json) -> String {
    let s = j.to_string();
    s.chars().take(200).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_workload::{PlantKind, Planted};

    fn truth() -> GroundTruth {
        let plant = |func: &str, kind| Planted {
            func: func.into(),
            file: "src/a.c".into(),
            kind,
        };
        GroundTruth {
            planted: vec![
                plant(
                    "bug_1",
                    PlantKind::FalsePositive { debug_code: false }, // reported, not a bug
                ),
                plant("bug_2", PlantKind::NonCross { real_bug: true }),
            ],
            now: 0,
        }
    }

    const CSV: &str = "rank,file,line,function,variable,scenario,author,familiarity,\
                       cross_scope,low_confidence\n\
                       1,src/a.c,3,bug_1,ret,retval,alice,1.000,true,false\n\
                       2,\"src/b,c.c\",9,bug_2,\"x\"\"y\",param,bob,2.000,true,false\n";

    #[test]
    fn csv_parses_quoted_fields() {
        let rows = parse_csv(CSV).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].file, "src/b,c.c");
        assert_eq!(rows[1].variable, "x\"y");
        assert_eq!(rows[1].line, 9);
        assert!(parse_csv("rank,file\n").is_err());
    }

    #[test]
    fn a_wrong_expected_count_fails_the_op() {
        let t = truth();
        let mut tally = Tally::default();
        tally.record(score_scan(CSV, &t, 2, 1));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        // Deliberately wrong expectations: one op each, both failed.
        tally.record(score_scan(CSV, &t, 3, 1));
        tally.record(score_scan(CSV, &t, 2, 2));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!(tally.reasons[0].contains("expects 3/1"));
        // An end-of-run mismatch fails the last op, never more than ran.
        tally.fail_last("final tree differs".into());
        tally.fail_last("again".into());
        assert_eq!((tally.attempted, tally.failed), (3, 3));
    }

    #[test]
    fn unbalanced_funnel_is_a_failure() {
        let reply = |pruned: i64| {
            vc_obs::json::parse(&format!(
                "{{\"ok\":true,\"deadline_exceeded\":false,\"funnel\":{{\"raw\":9,\
                 \"cross_scope\":5,\"pruned\":{pruned},\"reported\":2}},\"csv\":{}}}",
                Json::Str(CSV.into()).to_string()
            ))
            .unwrap()
        };
        assert_eq!(check_scan_reply(&reply(3)), Ok(CSV));
        assert!(check_scan_reply(&reply(2)).is_err());
    }
}
