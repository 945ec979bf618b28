//! The `.repro` file format and replayer.
//!
//! A repro is a self-contained, human-readable record of one shrunk
//! divergence: the provenance (seed and case index), the exact probe that
//! disagreed (variant, referee, every engine toggle), what the oracle and
//! the referee reported, and the minimized data graph and pattern embedded
//! in the standard CSCE text format. `csce fuzz --replay FILE` parses one
//! of these, re-runs the single probe and reports whether the divergence
//! still reproduces.
//!
//! Format (version 1):
//!
//! ```text
//! csce-fuzz repro v1
//! seed 42
//! case 17
//! variant e
//! referee engine
//! planner csce
//! cache true
//! factorize true
//! threads 4
//! expected 12
//! got 13
//! begin data
//! t 5 6
//! ...
//! end data
//! begin pattern
//! ...
//! end pattern
//! ```
//!
//! A baseline referee replaces the `planner`/`cache`/`factorize`/`threads`
//! block with `referee baseline <NAME>`, and an errored probe replaces
//! `got <count>` with `error <message>`.

use crate::referee::{diverges, probe, EngineConfig, EngineUnderTest, Observed, Referee};
use csce_analyze::{Validate, ValidationReport};
use csce_graph::io::{read_csce, write_csce};
use csce_graph::{Graph, Variant};
use std::io::BufReader;
use std::path::Path;

/// A parsed (or freshly minted) repro file.
#[derive(Clone, Debug)]
pub struct Repro {
    /// Master seed of the originating fuzz run.
    pub seed: u64,
    /// Case index within that run.
    pub case: u64,
    pub variant: Variant,
    pub referee: Referee,
    /// Oracle count at mint time.
    pub expected: u64,
    /// Referee report at mint time.
    pub observed: Observed,
    pub data: Graph,
    pub pattern: Graph,
}

fn graph_block(g: &Graph) -> Result<String, String> {
    let mut buf = Vec::new();
    write_csce(g, &mut buf).map_err(|e| e.to_string())?;
    String::from_utf8(buf).map_err(|e| e.to_string())
}

impl Repro {
    /// Serialize to the v1 text format.
    pub fn to_text(&self) -> Result<String, String> {
        let mut out = String::new();
        out.push_str("csce-fuzz repro v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("case {}\n", self.case));
        out.push_str(&format!("variant {}\n", self.variant.tag().to_ascii_lowercase()));
        match &self.referee {
            Referee::Engine(cfg) => {
                out.push_str("referee engine\n");
                out.push_str(&format!("planner {}\n", cfg.planner.name()));
                out.push_str(&format!("cache {}\n", cfg.use_sce_cache));
                out.push_str(&format!("factorize {}\n", cfg.factorize));
                out.push_str(&format!("threads {}\n", cfg.threads));
            }
            Referee::Baseline(name) => {
                out.push_str(&format!("referee baseline {name}\n"));
            }
        }
        out.push_str(&format!("expected {}\n", self.expected));
        match &self.observed {
            Observed::Count(c) => out.push_str(&format!("got {c}\n")),
            Observed::Error(e) => {
                out.push_str(&format!("error {}\n", e.replace('\n', " ")));
            }
        }
        out.push_str("begin data\n");
        out.push_str(&graph_block(&self.data)?);
        out.push_str("end data\n");
        out.push_str("begin pattern\n");
        out.push_str(&graph_block(&self.pattern)?);
        out.push_str("end pattern\n");
        Ok(out)
    }

    /// Parse the v1 text format.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let mut lines = text.lines();
        if lines.next() != Some("csce-fuzz repro v1") {
            return Err("not a csce-fuzz repro (missing `csce-fuzz repro v1` header)".to_string());
        }
        let mut seed = None;
        let mut case = None;
        let mut variant = None;
        let mut referee_kind: Option<String> = None;
        let mut planner = None;
        let mut cache = None;
        let mut factorize = None;
        let mut threads = None;
        let mut expected = None;
        let mut observed = None;
        let mut data = None;
        let mut pattern = None;
        while let Some(line) = lines.next() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = match line.split_once(' ') {
                Some((k, r)) => (k, r),
                None => (line, ""),
            };
            match key {
                "seed" => seed = Some(parse_num::<u64>("seed", rest)?),
                "case" => case = Some(parse_num::<u64>("case", rest)?),
                "variant" => variant = Some(rest.parse()?),
                "referee" => referee_kind = Some(rest.to_string()),
                "planner" => planner = Some(rest.parse()?),
                "cache" => cache = Some(parse_bool("cache", rest)?),
                "factorize" => factorize = Some(parse_bool("factorize", rest)?),
                "threads" => threads = Some(parse_num::<usize>("threads", rest)?),
                "expected" => expected = Some(parse_num::<u64>("expected", rest)?),
                "got" => observed = Some(Observed::Count(parse_num::<u64>("got", rest)?)),
                "error" => observed = Some(Observed::Error(rest.to_string())),
                "begin" => {
                    let block = read_block(&mut lines, rest)?;
                    match rest {
                        "data" => data = Some(block),
                        "pattern" => pattern = Some(block),
                        other => return Err(format!("unknown block {other:?}")),
                    }
                }
                other => return Err(format!("unknown repro key {other:?}")),
            }
        }
        let referee = match referee_kind.as_deref() {
            Some("engine") => Referee::Engine(EngineConfig {
                planner: planner.ok_or("engine referee missing `planner`")?,
                use_sce_cache: cache.ok_or("engine referee missing `cache`")?,
                factorize: factorize.ok_or("engine referee missing `factorize`")?,
                threads: threads.ok_or("engine referee missing `threads`")?,
            }),
            Some(rest) => match rest.strip_prefix("baseline ") {
                Some(name) if !name.is_empty() => Referee::Baseline(name.to_string()),
                _ => return Err(format!("unknown referee {rest:?}")),
            },
            None => return Err("missing `referee` line".to_string()),
        };
        Ok(Repro {
            seed: seed.ok_or("missing `seed` line")?,
            case: case.ok_or("missing `case` line")?,
            variant: variant.ok_or("missing `variant` line")?,
            referee,
            expected: expected.ok_or("missing `expected` line")?,
            observed: observed.ok_or("missing `got`/`error` line")?,
            data: data.ok_or("missing data graph block")?,
            pattern: pattern.ok_or("missing pattern block")?,
        })
    }

    /// Read and parse a repro file from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Repro, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Repro::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Serialize and write to disk.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        let text = self.to_text()?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, s: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("invalid `{key}` value {s:?}"))
}

fn parse_bool(key: &str, s: &str) -> Result<bool, String> {
    match s {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("invalid `{key}` value {other:?}")),
    }
}

fn read_block<'a>(lines: &mut impl Iterator<Item = &'a str>, name: &str) -> Result<Graph, String> {
    let end = format!("end {name}");
    let mut body = String::new();
    for line in lines {
        if line.trim_end() == end {
            let reader = BufReader::new(body.as_bytes());
            return read_csce(reader).map_err(|e| format!("in {name} block: {e}"));
        }
        body.push_str(line);
        body.push('\n');
    }
    Err(format!("unterminated {name} block (missing `{end}`)"))
}

/// Outcome of replaying a repro's single probe against the current build.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Fresh oracle count.
    pub expected_now: u64,
    /// Fresh referee report.
    pub observed_now: Observed,
    /// Whether the divergence still reproduces.
    pub reproduces: bool,
    /// Structural validation of the embedded graphs.
    pub validation: ValidationReport,
}

/// Re-run the repro's probe and re-validate its graphs.
pub fn replay(repro: &Repro, engine: &dyn EngineUnderTest) -> ReplayReport {
    let mut validation = repro.data.validate();
    validation.merge(repro.pattern.validate());
    let (expected_now, observed_now) =
        probe(&repro.data, &repro.pattern, repro.variant, &repro.referee, engine, None);
    let reproduces = diverges(expected_now, &observed_now);
    ReplayReport { expected_now, observed_now, reproduces, validation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case;
    use crate::referee::{InjectedBugEngine, RealEngine};
    use csce_core::PlannerConfig;

    fn sample_repro() -> Repro {
        let case = case::generate(5, 2);
        Repro {
            seed: 5,
            case: 2,
            variant: Variant::EdgeInduced,
            referee: Referee::Engine(EngineConfig {
                planner: PlannerConfig::csce(),
                use_sce_cache: true,
                factorize: true,
                threads: 4,
            }),
            expected: 12,
            observed: Observed::Count(13),
            data: case.data,
            pattern: case.pattern,
        }
    }

    #[test]
    fn text_round_trip() {
        let repro = sample_repro();
        let text = repro.to_text().expect("serialize");
        let back = Repro::parse(&text).expect("parse");
        assert_eq!(back.seed, repro.seed);
        assert_eq!(back.case, repro.case);
        assert_eq!(back.variant, repro.variant);
        assert_eq!(back.referee, repro.referee);
        assert_eq!(back.expected, repro.expected);
        assert_eq!(back.observed, repro.observed);
        assert_eq!(back.data.edges(), repro.data.edges());
        assert_eq!(back.pattern.edges(), repro.pattern.edges());
    }

    /// A literal v1 file: the `planner` token names a
    /// [`PlannerConfig::name`] preset, so `csce+ldsf` is the LDSF one, and
    /// the file writes back unchanged.
    #[test]
    fn v1_planner_tokens_parse_to_presets() {
        let text = "csce-fuzz repro v1\nseed 7\ncase 3\nvariant e\nreferee engine\n\
                    planner csce+ldsf\ncache false\nfactorize true\nthreads 2\n\
                    expected 1\ngot 2\n\
                    begin data\nt 2 1\nv 0 0\nv 1 1\ne 0 1 - d\nend data\n\
                    begin pattern\nt 2 1\nv 0 0\nv 1 1\ne 0 1 - d\nend pattern\n";
        let repro = Repro::parse(text).expect("parse");
        let want = EngineConfig {
            planner: PlannerConfig::ldsf(),
            use_sce_cache: false,
            factorize: true,
            threads: 2,
        };
        assert_eq!(repro.referee, Referee::Engine(want));
        assert_eq!(repro.to_text().expect("serialize"), text);
        for (variant, token) in Variant::ALL.into_iter().zip(["e", "v", "h"]) {
            let text = text.replace("variant e\n", &format!("variant {token}\n"));
            let repro = Repro::parse(&text).expect("parse");
            assert_eq!(repro.variant, variant);
            assert_eq!(repro.to_text().expect("serialize"), text, "variant {token}");
        }
    }

    #[test]
    fn baseline_referee_round_trips() {
        let mut repro = sample_repro();
        repro.referee = Referee::Baseline("VF".to_string());
        repro.observed = Observed::Error("worker hung".to_string());
        let text = repro.to_text().expect("serialize");
        let back = Repro::parse(&text).expect("parse");
        assert_eq!(back.referee, repro.referee);
        assert_eq!(back.observed, repro.observed);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(Repro::parse("").is_err());
        assert!(Repro::parse("csce-fuzz repro v1\nseed x\n").is_err());
        assert!(Repro::parse("csce-fuzz repro v1\nseed 1\nbegin data\nt 1 0\nv 0 -\n").is_err());
        let repro = sample_repro();
        let text = repro.to_text().expect("serialize");
        let truncated = &text[..text.len() / 2];
        assert!(Repro::parse(truncated).is_err());
    }

    #[test]
    fn replay_flags_a_live_bug_and_clears_a_fixed_one() {
        // Mint a repro against the sabotaged engine; it must reproduce
        // there and vanish on the real engine ("the bug got fixed").
        let case = case::generate(42, 0);
        let expected = csce_graph::oracle_count(&case.data, &case.pattern, Variant::EdgeInduced);
        let repro = Repro {
            seed: 42,
            case: 0,
            variant: Variant::EdgeInduced,
            referee: Referee::Engine(EngineConfig {
                planner: PlannerConfig::csce(),
                use_sce_cache: true,
                factorize: true,
                threads: 1,
            }),
            expected,
            observed: Observed::Count(expected + 1),
            data: case.data,
            pattern: case.pattern,
        };
        if expected > 0 {
            let live = replay(&repro, &InjectedBugEngine);
            assert!(live.reproduces, "sabotaged engine must still diverge");
        }
        let fixed = replay(&repro, &RealEngine);
        assert!(!fixed.reproduces, "real engine must agree with the oracle");
        assert!(fixed.validation.is_ok());
    }
}
