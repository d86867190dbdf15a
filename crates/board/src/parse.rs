//! Line-oriented `.board` parser with BLIF-style line-numbered errors.
//!
//! Grammar (one directive per line, `#` comments, blank lines ignored):
//!
//! ```text
//! board <name>
//! site <name> [device=<class>]
//! channel <siteA> <siteB> capacity=<n> hop=<n> [width=<n>]
//! end board
//! ```
//!
//! Line numbers are 1-based physical lines; CRLF endings must not make
//! them drift (the corpus in `tests/data/` pins this). Structural
//! errors that the validator would also catch (duplicate sites, phantom
//! channel endpoints, zero capacities) are reported here with the line
//! that introduced them, so `netpart --board broken.board` points at
//! the exact line to fix.

use crate::error::BoardError;
use crate::model::{Board, Channel, Site};

/// Parses `.board` text into a validated [`Board`].
pub fn parse(text: &str) -> Result<Board, BoardError> {
    let fail = |line: usize, what: String| Err(BoardError::Parse { line, what });
    let mut name: Option<String> = None;
    let mut sites: Vec<Site> = Vec::new();
    let mut site_lines: Vec<usize> = Vec::new();
    let mut channels: Vec<Channel> = Vec::new();
    let mut ended = false;
    let mut last_line = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        last_line = lineno;
        // `str::lines` already strips a trailing `\r`, but guard against
        // a stray bare `\r` mid-line anyway.
        let line = raw.trim_end_matches('\r').trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if ended {
            return fail(lineno, format!("content after `end board`: `{line}`"));
        }
        let mut tokens = line.split_whitespace();
        let directive = tokens.next().unwrap_or("");
        match directive {
            "board" => {
                if name.is_some() {
                    return fail(lineno, "duplicate `board` header".into());
                }
                match tokens.next() {
                    Some(n) if tokens.next().is_none() => name = Some(n.to_string()),
                    Some(_) => return fail(lineno, "trailing tokens after board name".into()),
                    None => return fail(lineno, "`board` needs a name".into()),
                }
            }
            "site" => {
                if name.is_none() {
                    return fail(lineno, "`site` before `board` header".into());
                }
                let Some(site_name) = tokens.next() else {
                    return fail(lineno, "`site` needs a name".into());
                };
                if sites.iter().any(|s| s.name == site_name) {
                    return fail(lineno, format!("duplicate site `{site_name}`"));
                }
                let mut device_class = None;
                for attr in tokens {
                    match attr.split_once('=') {
                        Some(("device", class)) if !class.is_empty() => {
                            device_class = Some(class.to_string());
                        }
                        _ => {
                            return fail(lineno, format!("unknown site attribute `{attr}`"));
                        }
                    }
                }
                sites.push(Site {
                    name: site_name.to_string(),
                    device_class,
                });
                site_lines.push(lineno);
            }
            "channel" => {
                if name.is_none() {
                    return fail(lineno, "`channel` before `board` header".into());
                }
                let (Some(a_name), Some(b_name)) = (tokens.next(), tokens.next()) else {
                    return fail(lineno, "`channel` needs two site endpoints".into());
                };
                let endpoint = |ep: &str| -> Result<u32, BoardError> {
                    match sites.iter().position(|s| s.name == ep) {
                        Some(i) => Ok(i as u32),
                        None => Err(BoardError::Parse {
                            line: lineno,
                            what: format!("channel endpoint `{ep}` is not a declared site"),
                        }),
                    }
                };
                let a = endpoint(a_name)?;
                let b = endpoint(b_name)?;
                if a == b {
                    return fail(
                        lineno,
                        format!("channel `{a_name}`-`{b_name}` is a self-loop"),
                    );
                }
                let mut capacity = None;
                let mut hop = None;
                let mut width = None;
                for attr in tokens {
                    let Some((key, value)) = attr.split_once('=') else {
                        return fail(lineno, format!("malformed channel attribute `{attr}`"));
                    };
                    let parsed: u32 = match value.parse() {
                        Ok(v) => v,
                        Err(_) => {
                            return fail(
                                lineno,
                                format!("channel attribute `{key}` is not a number: `{value}`"),
                            );
                        }
                    };
                    let slot = match key {
                        "capacity" => &mut capacity,
                        "hop" => &mut hop,
                        "width" => &mut width,
                        _ => return fail(lineno, format!("unknown channel attribute `{key}`")),
                    };
                    if slot.is_some() {
                        return fail(lineno, format!("duplicate channel attribute `{key}`"));
                    }
                    if parsed == 0 {
                        return fail(lineno, format!("channel {key} must be positive"));
                    }
                    *slot = Some(parsed);
                }
                let Some(capacity) = capacity else {
                    return fail(lineno, "channel is missing `capacity=`".into());
                };
                let Some(hop) = hop else {
                    return fail(lineno, "channel is missing `hop=`".into());
                };
                channels.push(Channel {
                    a,
                    b,
                    capacity,
                    hop,
                    width: width.unwrap_or(1),
                });
            }
            "end" => {
                if tokens.next() != Some("board") || tokens.next().is_some() {
                    return fail(lineno, "expected `end board`".into());
                }
                if name.is_none() {
                    return fail(lineno, "`end board` before `board` header".into());
                }
                ended = true;
            }
            other => {
                return fail(lineno, format!("unknown directive `{other}`"));
            }
        }
    }

    let Some(name) = name else {
        return fail(
            0,
            "truncated board description: missing `board` header".into(),
        );
    };
    if !ended {
        return fail(
            last_line,
            "truncated board description: missing `end board` trailer".into(),
        );
    }
    match Board::try_new(name, sites, channels) {
        Ok(board) => Ok(board),
        // try_new re-checks what the line loop already rejected, except
        // for graph-level properties; pin those to the last site line so
        // the user still gets a location.
        Err(BoardError::Invalid { what }) => fail(site_lines.last().copied().unwrap_or(0), what),
        Err(other) => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_board_parses() {
        let board = parse(
            "# two boards, one cable\nboard tiny\nsite a\nsite b\nchannel a b capacity=4 hop=2\nend board\n",
        )
        .expect("parses");
        assert_eq!(board.name(), "tiny");
        assert_eq!(board.n_sites(), 2);
        assert_eq!(board.channels()[0].hop, 2);
        assert_eq!(board.channels()[0].width, 1, "width defaults to 1");
    }

    #[test]
    fn duplicate_site_reports_its_line() {
        let err = parse("board d\nsite a\nsite a\nend board\n").unwrap_err();
        assert_eq!(
            err,
            BoardError::Parse {
                line: 3,
                what: "duplicate site `a`".into()
            }
        );
    }

    #[test]
    fn phantom_endpoint_reports_its_line() {
        let err = parse("board p\nsite a\nsite b\nchannel a ghost capacity=1 hop=1\nend board\n")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("ghost"), "{msg}");
    }

    #[test]
    fn zero_capacity_reports_its_line() {
        let err = parse("board z\nsite a\nsite b\nchannel a b capacity=0 hop=1\nend board\n")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("capacity must be positive"), "{msg}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let err = parse("board t\nsite a\nsite b\nchannel a b capacity=1 hop=1\n").unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn crlf_line_numbers_do_not_drift() {
        let text = "board c\r\nsite a\r\nsite b\r\nchannel a b capacity=1 hop=0\r\nend board\r\n";
        let err = parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("hop must be positive"), "{msg}");
    }

    #[test]
    fn disconnected_board_reports_last_site_line() {
        let err =
            parse("board s\nsite a\nsite b\nsite c\nchannel a b capacity=1 hop=1\nend board\n")
                .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("disconnected"), "{msg}");
        assert!(msg.contains("line 4"), "{msg}");
    }
}
