//! Scraping the servers' Prometheus-text `/metrics` endpoint.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One scrape: every sample line, keyed by series name with its labels
/// (`name{label="v"}`) exactly as printed.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

/// Parses Prometheus text exposition format; comment and malformed lines
/// are skipped.
pub fn parse(text: &str) -> Scrape {
    let samples = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.trim().rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect();
    Scrape { samples }
}

impl Scrape {
    /// Sum of every series named `name`, over all label sets (0 if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(series, _)| {
                series
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Cumulative histogram buckets of `name` as `(upper bound, count)`,
    /// ascending, with `+Inf` as infinity.
    pub fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut out: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter_map(|(series, &count)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, count))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Adds every series of `other` into this scrape.
    pub fn add(&mut self, other: &Scrape) {
        for (series, v) in &other.samples {
            *self.samples.entry(series.clone()).or_insert(0.0) += v;
        }
    }
}

/// The change of every series between two scrapes (`after - before`).
pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
    let samples = after
        .samples
        .iter()
        .map(|(k, v)| (k.clone(), v - before.samples.get(k).copied().unwrap_or(0.0)))
        .collect();
    Scrape { samples }
}

/// Quantile `q` (0..1) from cumulative buckets: the upper bound of the first
/// bucket holding the `q`-th sample. The servers' buckets are powers of two,
/// so this is an upper estimate within a factor of two. `None` when empty.
pub fn bucket_quantile(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = (q * total).ceil().max(1.0);
    buckets
        .iter()
        .find(|(_, cumulative)| *cumulative >= rank)
        .map(|(bound, _)| *bound)
}

/// `GET /metrics` over plain HTTP/1.0.
pub fn scrape(addr: SocketAddr) -> io::Result<Scrape> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP body"))?;
    Ok(parse(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
# TYPE xft_batch_size histogram
xft_batch_size_bucket{le=\"1\"} 3
xft_batch_size_bucket{le=\"2\"} 3
xft_batch_size_bucket{le=\"4\"} 10
xft_batch_size_bucket{le=\"+Inf\"} 12
xft_batch_size_sum 40
xft_batch_size_count 12
# TYPE xft_commits_total counter
xft_commits_total 321
xft_commits_totally_different 5
# TYPE xft_last_heard_age_seconds gauge
xft_last_heard_age_seconds{peer=\"1\"} 0.125
xft_last_heard_age_seconds{peer=\"2\"} 0.5
not a sample line
";

    #[test]
    fn parses_counters_and_labels() {
        let s = parse(FIXTURE);
        assert_eq!(s.get("xft_commits_total"), 321.0);
        assert_eq!(s.get("xft_last_heard_age_seconds"), 0.625);
        assert_eq!(s.get("xft_batch_size_sum"), 40.0);
        assert_eq!(s.get("xft_missing"), 0.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let s = parse(FIXTURE);
        let b = s.buckets("xft_batch_size");
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], (1.0, 3.0));
        assert_eq!(b[3], (f64::INFINITY, 12.0));
        assert_eq!(bucket_quantile(&b, 0.25), Some(1.0));
        assert_eq!(bucket_quantile(&b, 0.5), Some(4.0));
        assert_eq!(bucket_quantile(&b, 0.99), Some(f64::INFINITY));
        assert_eq!(bucket_quantile(&[], 0.5), None);
    }

    #[test]
    fn delta_subtracts_series() {
        let before = parse("xft_commits_total 100\nxft_x 1\n");
        let after = parse("xft_commits_total 160\nxft_x 1\nxft_new 4\n");
        let d = delta(&before, &after);
        assert_eq!(d.get("xft_commits_total"), 60.0);
        assert_eq!(d.get("xft_x"), 0.0);
        assert_eq!(d.get("xft_new"), 4.0);
        let mut sum = before.clone();
        sum.add(&after);
        assert_eq!(sum.get("xft_commits_total"), 260.0);
        assert_eq!(sum.get("xft_new"), 4.0);
    }
}
