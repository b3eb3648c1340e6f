//! The `datacelld` control-plane wire protocol.
//!
//! Line-oriented text, one request per line, mirroring the paper's choice
//! of "a textual interface for exchanging flat relational tuples" (§3.1)
//! for the control plane as well. Command grammar (keywords are
//! case-insensitive, names and SQL are verbatim):
//!
//! ```text
//! PING
//! CREATE STREAM <name> (<col> <type>, ...)      -- also CREATE TABLE / CREATE BASKET
//!     [PERSIST]                                 -- durable stream (WAL + segments)
//!     [SHARD BY (<col>) [SHARDS <n>]]           -- hash-partitioned stream (dccluster only)
//! FLUSH STREAM <name>                           -- seal a durable stream's hot rows
//! EXEC <sql>                                    -- one-shot statement(s)
//! REGISTER QUERY <name> AS <sql>                -- continuous query
//! ATTACH RECEPTOR <stream> ON PORT <port> [FORMAT TEXT|BINARY]
//! ATTACH EMITTER <query> ON PORT <port> [FORMAT TEXT|BINARY]
//! DETACH RECEPTOR <stream> PORT <port>          -- close an attached receptor port
//! DETACH EMITTER <query> PORT <port>            -- close an attached emitter port
//! EXPLAIN <sql>                                 -- compiled physical plan of a script
//! EXPLAIN QUERY <name>                          -- plan of a registered continuous query
//! STATS
//! METRICS                                       -- Prometheus text exposition
//! METRICS HISTORY [<series>] [LAST <n>]         -- snapshot ring, oldest first
//! TRACE DUMP [QUERY <name>]                     -- flight-recorder ring dump
//! TRACE SPANS [BATCH <id>]                      -- per-batch span trees
//! TRACE QUERY <name> ON|OFF                     -- live trace stream (emitter-style port)
//! HEALTH                                        -- windowed health score + signals
//! REPL OPEN <stream> AS <CREATE STREAM ddl>     -- open a stream in replica mode (follower)
//! REPL STATUS <stream>                          -- a stream's durable catch-up cursor
//! REPL EXPORT <stream> SEGS <k> EPOCH <e> OFFSET <o>
//!                                               -- primary: durable state past the cursor
//! REPL SEGMENT <stream> <file> <rows> <hex>     -- follower: land one shipped segment
//! REPL WAL <stream> EPOCH <e> FROM <o> [<hex>]  -- follower: append one shipped WAL chunk
//! REPL PROMOTE                                  -- follower becomes a primary (replay + attach)
//! QUIT
//! SHUTDOWN
//! ```
//!
//! The `PERSIST` clause declares a durable stream: accepted appends are
//! write-ahead logged before they are acknowledged and periodically
//! sealed into immutable columnar segments (see the `dcstore` crate).
//! It requires the daemon to run with `--data-dir`.
//!
//! The `SHARD BY` clause declares a hash-partitioned stream. The grammar
//! is parsed here (shared with the `dccluster` router, which fronts N
//! engines behind this same protocol); a single `datacelld` engine has
//! nothing to shard across and rejects the clause with a pointer to the
//! router.
//!
//! Port 0 picks an ephemeral port. `FORMAT` selects the data-plane
//! encoding of the attached port: `TEXT` (the default — §3.1 lines,
//! wire-compatible with every pre-existing client) or `BINARY` (columnar
//! frames, see [`datacell::frame`]).
//!
//! Every response is either
//!
//! ```text
//! OK <n>\n        followed by exactly n body lines, or
//! ERR <message>\n
//! ```
//!
//! so clients can parse all replies with one loop.

use std::io::{BufRead, Write};

use datacell::frame::WireFormat;

/// A parsed control-plane request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Ping,
    /// CREATE STREAM/TABLE/BASKET — the raw SQL line, passed through to
    /// the engine's DDL executor.
    Ddl(String),
    /// `CREATE STREAM ... PERSIST` — a durable stream: appends are
    /// write-ahead logged before acknowledgement and sealed into columnar
    /// segments. Requires a daemon running with a data directory.
    DdlPersist {
        /// The plain `CREATE STREAM` DDL with the PERSIST clause stripped.
        ddl: String,
        stream: String,
    },
    /// `CREATE STREAM ... SHARD BY (col) [SHARDS n]` — a hash-partitioned
    /// stream. Only a `dccluster` router can honor this; a single engine
    /// rejects it.
    DdlSharded {
        /// The plain `CREATE STREAM` DDL with the persist/shard clauses
        /// stripped — what the router forwards to each shard engine.
        ddl: String,
        stream: String,
        /// Partition key column name.
        key: String,
        /// Explicit shard count; `None` = one shard per engine.
        shards: Option<usize>,
        /// `PERSIST` combined with `SHARD BY`: every shard engine opens
        /// a durable stream in its own data directory.
        persist: bool,
    },
    /// `FLUSH STREAM <name>` — seal a durable stream's hot rows into a
    /// segment now (and truncate its WAL).
    FlushStream {
        stream: String,
    },
    /// One-shot SQL script execution.
    Exec(String),
    RegisterQuery {
        name: String,
        sql: String,
    },
    AttachReceptor {
        stream: String,
        port: u16,
        format: WireFormat,
    },
    AttachEmitter {
        query: String,
        port: u16,
        format: WireFormat,
    },
    /// `DETACH RECEPTOR <stream> PORT <p>` — stop accepting on a receptor
    /// port and release it.
    DetachReceptor {
        stream: String,
        port: u16,
    },
    /// `DETACH EMITTER <query> PORT <p>` — stop accepting on an emitter
    /// port and release it.
    DetachEmitter {
        query: String,
        port: u16,
    },
    /// `EXPLAIN <sql>` — print the compiled physical plan of a script.
    Explain(String),
    /// `EXPLAIN QUERY <name>` — plan of a registered continuous query.
    ExplainQuery { name: String },
    Stats,
    /// `METRICS` — the whole telemetry registry in Prometheus text
    /// exposition format.
    Metrics,
    /// `METRICS HISTORY [<series>] [LAST <n>]` — the snapshot ring,
    /// oldest first, optionally filtered to one series (exact metric
    /// name or series-key prefix) and/or the last `n` snapshots.
    MetricsHistory {
        series: Option<String>,
        last: Option<usize>,
    },
    /// `TRACE DUMP [QUERY <name>]` — the flight recorder's ring of
    /// recent events, optionally filtered to one query.
    TraceDump { query: Option<String> },
    /// `TRACE SPANS [BATCH <id>]` — per-batch span trees reconstructed
    /// from the flight recorder, optionally filtered to one batch id.
    TraceSpans { batch: Option<u64> },
    /// `HEALTH` — the node's windowed health score, degraded reasons
    /// and raw signals.
    Health,
    /// `TRACE QUERY <name> ON|OFF` — start (reply carries `port=N`) or
    /// stop streaming that query's trace events live.
    TraceStream { query: String, on: bool },
    /// `REPL OPEN <stream> AS <ddl>` — open a durable stream in replica
    /// mode: manifest entry + directory, no live basket. Idempotent for
    /// an identical schema. Requires `--data-dir`.
    ReplOpen { stream: String, ddl: String },
    /// `REPL STATUS <stream>` — the stream's durable cursor
    /// (`epoch= wal_bytes= segments=`), the position a primary resumes
    /// shipping from.
    ReplStatus { stream: String },
    /// `REPL EXPORT <stream> SEGS <k> EPOCH <e> OFFSET <o>` — primary
    /// side of one replication round: segments past index `k` plus a
    /// WAL chunk from `(e, o)`, hex-encoded.
    ReplExport {
        stream: String,
        segs: usize,
        epoch: u64,
        offset: u64,
    },
    /// `REPL SEGMENT <stream> <file> <rows> <hex>` — follower: land one
    /// shipped segment file durably.
    ReplSegment {
        stream: String,
        file: String,
        rows: u64,
        hex: String,
    },
    /// `REPL WAL <stream> EPOCH <e> FROM <o> [<hex>]` — follower: append
    /// one shipped WAL chunk (empty chunk = pure epoch adoption after a
    /// primary seal).
    ReplWal {
        stream: String,
        epoch: u64,
        from: u64,
        hex: String,
    },
    /// `REPL PROMOTE` — replay every replica stream's WAL tail into a
    /// live basket and attach persistence: the follower becomes a
    /// primary.
    ReplPromote,
    /// Close this control session (the server keeps running).
    Quit,
    /// Stop the whole server gracefully.
    Shutdown,
}

/// Split one leading whitespace-delimited word off `input`.
fn take_word(input: &str) -> (&str, &str) {
    let input = input.trim_start();
    match input.find(char::is_whitespace) {
        Some(i) => (&input[..i], input[i..].trim_start()),
        None => (input, ""),
    }
}

fn expect_kw<'a>(input: &'a str, kw: &str) -> Result<&'a str, String> {
    let (word, rest) = take_word(input);
    if word.eq_ignore_ascii_case(kw) {
        Ok(rest)
    } else {
        Err(format!("expected {kw}, got {word:?}"))
    }
}

/// Parse one whitespace-delimited number off `input`.
fn parse_num<'a, T: std::str::FromStr>(
    input: &'a str,
    what: &str,
) -> Result<(T, &'a str), String> {
    let (word, rest) = take_word(input);
    word.parse()
        .map(|n| (n, rest))
        .map_err(|_| format!("invalid {what} {word:?}"))
}

fn parse_name(input: &str) -> Result<(String, &str), String> {
    let (word, rest) = take_word(input);
    if word.is_empty() {
        return Err("missing name".into());
    }
    if !word
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Err(format!("invalid name {word:?}"));
    }
    Ok((word.to_string(), rest))
}

/// `CREATE STREAM <name> (<cols>) [PERSIST] [SHARD BY (<col>) [SHARDS <n>]]`.
///
/// `line` is the whole (trimmed) request, `after_kind` the text after the
/// STREAM keyword. Without a persist/shard clause the line passes through
/// as [`Command::Ddl`], byte-identical to the pre-sharding grammar.
fn parse_create_stream(line: &str, after_kind: &str) -> Result<Command, String> {
    // the name may be glued to the column list ("S(id int)") — the SQL
    // lexer has always accepted that, so the shard-clause scan must too
    let after_kind = after_kind.trim_start();
    let name_end = after_kind
        .char_indices()
        .find(|(_, c)| !c.is_ascii_alphanumeric() && *c != '_')
        .map_or(after_kind.len(), |(i, _)| i);
    if name_end == 0 {
        return Err("missing stream name".into());
    }
    let stream = after_kind[..name_end].to_string();
    let cols = after_kind[name_end..].trim_start();
    if !cols.starts_with('(') {
        return Err("CREATE STREAM requires a (col type, ...) list".into());
    }
    // depth-matched close: column types may carry their own parens
    // (e.g. varchar(20))
    let mut depth = 0usize;
    let mut close = None;
    for (i, c) in cols.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(close) = close else {
        return Err("unterminated column list".into());
    };
    let after_cols_raw = cols[close + 1..].trim();
    // a trailing semicolon was always a legal DDL terminator
    let after_cols = after_cols_raw.trim_end_matches(';').trim_end();
    if after_cols.is_empty() {
        return Ok(Command::Ddl(line.to_string()));
    }
    // the DDL a shard engine (or the persistent-create path) executes:
    // the line up to the column list, clauses stripped
    let clause_at = line.len() - after_cols_raw.len();
    let plain_ddl = line[..clause_at].trim_end().to_string();
    // [PERSIST] — may precede a SHARD BY clause
    let (first, after_first) = take_word(after_cols);
    let (persist, after_cols) = if first.eq_ignore_ascii_case("PERSIST") {
        (true, after_first)
    } else {
        (false, after_cols)
    };
    if after_cols.is_empty() {
        return Ok(Command::DdlPersist {
            ddl: plain_ddl,
            stream,
        });
    }
    // SHARD BY (<col>) [SHARDS <n>]
    let tail = expect_kw(after_cols, "SHARD")?;
    let tail = expect_kw(tail, "BY")?;
    let tail = tail.trim_start();
    let key_body = tail
        .strip_prefix('(')
        .ok_or("SHARD BY requires a parenthesized key column")?;
    let Some(key_close) = key_body.find(')') else {
        return Err("unterminated SHARD BY key".into());
    };
    let (key, extra) = parse_name(&key_body[..key_close])?;
    if !extra.is_empty() {
        return Err("SHARD BY takes exactly one key column".into());
    }
    let tail = key_body[key_close + 1..].trim();
    let shards = if tail.is_empty() {
        None
    } else {
        let tail = expect_kw(tail, "SHARDS")?;
        let (n_word, trailing) = take_word(tail);
        if !trailing.is_empty() {
            return Err(format!("unexpected trailing input {trailing:?}"));
        }
        let n: usize = n_word
            .parse()
            .map_err(|_| format!("invalid shard count {n_word:?}"))?;
        if n == 0 {
            return Err("SHARDS must be at least 1".into());
        }
        Some(n)
    };
    Ok(Command::DdlSharded {
        ddl: plain_ddl,
        stream,
        key,
        shards,
        persist,
    })
}

/// Parse one request line.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    let (head, rest) = take_word(line);
    match head.to_ascii_uppercase().as_str() {
        "" => Err("empty command".into()),
        "PING" => Ok(Command::Ping),
        "STATS" => Ok(Command::Stats),
        "METRICS" => {
            if rest.is_empty() {
                return Ok(Command::Metrics);
            }
            let (sub, tail) = take_word(rest);
            if !sub.eq_ignore_ascii_case("HISTORY") {
                return Err(format!("unexpected trailing input {rest:?}"));
            }
            if tail.is_empty() {
                return Ok(Command::MetricsHistory {
                    series: None,
                    last: None,
                });
            }
            // optional <series> first, optional LAST <n> after
            let (word, _) = take_word(tail);
            let (series, tail) = if word.eq_ignore_ascii_case("LAST") {
                (None, tail)
            } else {
                let (name, after_name) = parse_name(tail)?;
                (Some(name), after_name)
            };
            let last = if tail.is_empty() {
                None
            } else {
                let tail = expect_kw(tail, "LAST")?;
                let (n_word, trailing) = take_word(tail);
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                let n: usize = n_word
                    .parse()
                    .map_err(|_| format!("invalid snapshot count {n_word:?}"))?;
                Some(n)
            };
            Ok(Command::MetricsHistory { series, last })
        }
        "HEALTH" => {
            if rest.is_empty() {
                Ok(Command::Health)
            } else {
                Err(format!("unexpected trailing input {rest:?}"))
            }
        }
        "TRACE" => {
            let (sub, tail) = take_word(rest);
            match sub.to_ascii_uppercase().as_str() {
                "DUMP" => {
                    if tail.is_empty() {
                        return Ok(Command::TraceDump { query: None });
                    }
                    let tail = expect_kw(tail, "QUERY")?;
                    let (name, trailing) = parse_name(tail)?;
                    if !trailing.is_empty() {
                        return Err(format!("unexpected trailing input {trailing:?}"));
                    }
                    Ok(Command::TraceDump { query: Some(name) })
                }
                "SPANS" => {
                    if tail.is_empty() {
                        return Ok(Command::TraceSpans { batch: None });
                    }
                    let tail = expect_kw(tail, "BATCH")?;
                    let (id_word, trailing) = take_word(tail);
                    if !trailing.is_empty() {
                        return Err(format!("unexpected trailing input {trailing:?}"));
                    }
                    let batch: u64 = id_word
                        .parse()
                        .map_err(|_| format!("invalid batch id {id_word:?}"))?;
                    Ok(Command::TraceSpans { batch: Some(batch) })
                }
                "QUERY" => {
                    let (name, tail) = parse_name(tail)?;
                    let (switch, trailing) = take_word(tail);
                    if !trailing.is_empty() {
                        return Err(format!("unexpected trailing input {trailing:?}"));
                    }
                    let on = match switch.to_ascii_uppercase().as_str() {
                        "ON" => true,
                        "OFF" => false,
                        other => return Err(format!("expected ON or OFF, got {other:?}")),
                    };
                    Ok(Command::TraceStream { query: name, on })
                }
                other => Err(format!("TRACE {other} is not supported")),
            }
        }
        "REPL" => {
            let (sub, tail) = take_word(rest);
            match sub.to_ascii_uppercase().as_str() {
                "OPEN" => {
                    let (stream, tail) = parse_name(tail)?;
                    let ddl = expect_kw(tail, "AS")?;
                    if ddl.is_empty() {
                        return Err("REPL OPEN requires DDL after AS".into());
                    }
                    Ok(Command::ReplOpen {
                        stream,
                        ddl: ddl.to_string(),
                    })
                }
                "STATUS" => {
                    let (stream, trailing) = parse_name(tail)?;
                    if !trailing.is_empty() {
                        return Err(format!("unexpected trailing input {trailing:?}"));
                    }
                    Ok(Command::ReplStatus { stream })
                }
                "EXPORT" => {
                    let (stream, tail) = parse_name(tail)?;
                    let tail = expect_kw(tail, "SEGS")?;
                    let (segs, tail) = parse_num::<usize>(tail, "segment count")?;
                    let tail = expect_kw(tail, "EPOCH")?;
                    let (epoch, tail) = parse_num::<u64>(tail, "epoch")?;
                    let tail = expect_kw(tail, "OFFSET")?;
                    let (offset, trailing) = parse_num::<u64>(tail, "offset")?;
                    if !trailing.is_empty() {
                        return Err(format!("unexpected trailing input {trailing:?}"));
                    }
                    Ok(Command::ReplExport {
                        stream,
                        segs,
                        epoch,
                        offset,
                    })
                }
                "SEGMENT" => {
                    let (stream, tail) = parse_name(tail)?;
                    // segment file names carry '-' and '.', so take the
                    // raw word rather than an identifier
                    let (file, tail) = take_word(tail);
                    if file.is_empty() {
                        return Err("REPL SEGMENT requires a file name".into());
                    }
                    let (rows, tail) = parse_num::<u64>(tail, "row count")?;
                    let (hex, trailing) = take_word(tail);
                    if hex.is_empty() {
                        return Err("REPL SEGMENT requires a hex payload".into());
                    }
                    if !trailing.is_empty() {
                        return Err(format!("unexpected trailing input {trailing:?}"));
                    }
                    Ok(Command::ReplSegment {
                        stream,
                        file: file.to_string(),
                        rows,
                        hex: hex.to_string(),
                    })
                }
                "WAL" => {
                    let (stream, tail) = parse_name(tail)?;
                    let tail = expect_kw(tail, "EPOCH")?;
                    let (epoch, tail) = parse_num::<u64>(tail, "epoch")?;
                    let tail = expect_kw(tail, "FROM")?;
                    let (from, tail) = parse_num::<u64>(tail, "offset")?;
                    // the hex payload may be absent: an empty chunk still
                    // carries an epoch to adopt after a primary seal
                    let (hex, trailing) = take_word(tail);
                    if !trailing.is_empty() {
                        return Err(format!("unexpected trailing input {trailing:?}"));
                    }
                    Ok(Command::ReplWal {
                        stream,
                        epoch,
                        from,
                        hex: hex.to_string(),
                    })
                }
                "PROMOTE" => {
                    if !tail.is_empty() {
                        return Err(format!("unexpected trailing input {tail:?}"));
                    }
                    Ok(Command::ReplPromote)
                }
                other => Err(format!("REPL {other} is not supported")),
            }
        }
        "QUIT" => Ok(Command::Quit),
        "SHUTDOWN" => Ok(Command::Shutdown),
        "CREATE" => {
            let (kind, after_kind) = take_word(rest);
            match kind.to_ascii_uppercase().as_str() {
                "STREAM" => parse_create_stream(line, after_kind),
                "TABLE" | "BASKET" => Ok(Command::Ddl(line.to_string())),
                other => Err(format!("CREATE {other} is not supported")),
            }
        }
        "FLUSH" => {
            let rest = expect_kw(rest, "STREAM")?;
            let (name, trailing) = parse_name(rest)?;
            if !trailing.is_empty() {
                return Err(format!("unexpected trailing input {trailing:?}"));
            }
            Ok(Command::FlushStream { stream: name })
        }
        "EXEC" => {
            if rest.is_empty() {
                Err("EXEC requires a SQL statement".into())
            } else {
                Ok(Command::Exec(rest.to_string()))
            }
        }
        "EXPLAIN" => {
            if rest.is_empty() {
                return Err("EXPLAIN requires SQL or QUERY <name>".into());
            }
            let (word, tail) = take_word(rest);
            // `QUERY <name>` with nothing trailing names a registered
            // query; anything else is a SQL script (no SQL statement
            // starts with the QUERY keyword)
            if word.eq_ignore_ascii_case("QUERY") {
                let (name, trailing) = parse_name(tail)?;
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                return Ok(Command::ExplainQuery { name });
            }
            Ok(Command::Explain(rest.to_string()))
        }
        "REGISTER" => {
            let rest = expect_kw(rest, "QUERY")?;
            let (name, rest) = parse_name(rest)?;
            let sql = expect_kw(rest, "AS")?;
            if sql.is_empty() {
                return Err("REGISTER QUERY requires SQL after AS".into());
            }
            Ok(Command::RegisterQuery {
                name,
                sql: sql.to_string(),
            })
        }
        "ATTACH" => {
            let (kind, rest) = take_word(rest);
            let (name, rest) = parse_name(rest)?;
            let rest = expect_kw(rest, "ON")?;
            let rest = expect_kw(rest, "PORT")?;
            let (port_word, rest) = take_word(rest);
            let port: u16 = port_word
                .parse()
                .map_err(|_| format!("invalid port {port_word:?}"))?;
            let format = if rest.is_empty() {
                WireFormat::Text
            } else {
                let rest = expect_kw(rest, "FORMAT")?;
                let (fmt_word, trailing) = take_word(rest);
                if !trailing.is_empty() {
                    return Err(format!("unexpected trailing input {trailing:?}"));
                }
                fmt_word.parse::<WireFormat>()?
            };
            match kind.to_ascii_uppercase().as_str() {
                "RECEPTOR" => Ok(Command::AttachReceptor {
                    stream: name,
                    port,
                    format,
                }),
                "EMITTER" => Ok(Command::AttachEmitter {
                    query: name,
                    port,
                    format,
                }),
                other => Err(format!("ATTACH {other} is not supported")),
            }
        }
        "DETACH" => {
            let (kind, rest) = take_word(rest);
            let (name, rest) = parse_name(rest)?;
            let rest = expect_kw(rest, "PORT")?;
            let (port_word, trailing) = take_word(rest);
            if !trailing.is_empty() {
                return Err(format!("unexpected trailing input {trailing:?}"));
            }
            let port: u16 = port_word
                .parse()
                .map_err(|_| format!("invalid port {port_word:?}"))?;
            match kind.to_ascii_uppercase().as_str() {
                "RECEPTOR" => Ok(Command::DetachReceptor { stream: name, port }),
                "EMITTER" => Ok(Command::DetachEmitter { query: name, port }),
                other => Err(format!("DETACH {other} is not supported")),
            }
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// A control-plane reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success, with zero or more body lines.
    Ok(Vec<String>),
    /// Failure, with a single-line message.
    Err(String),
}

impl Response {
    /// Encode onto a writer. Body lines have embedded newlines replaced so
    /// framing always holds.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        match self {
            Response::Ok(body) => {
                writeln!(w, "OK {}", body.len())?;
                for line in body {
                    writeln!(w, "{}", line.replace(['\n', '\r'], " "))?;
                }
            }
            Response::Err(msg) => {
                writeln!(w, "ERR {}", msg.replace(['\n', '\r'], " "))?;
            }
        }
        w.flush()
    }

    /// Decode from a reader (the client side).
    pub fn read_from<R: BufRead>(r: &mut R) -> std::io::Result<Response> {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        let line = line.trim_end_matches(['\n', '\r']);
        if let Some(msg) = line.strip_prefix("ERR ") {
            return Ok(Response::Err(msg.to_string()));
        }
        let Some(count) = line
            .strip_prefix("OK")
            .map(str::trim)
            .and_then(|n| n.parse::<usize>().ok())
        else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response header {line:?}"),
            ));
        };
        let mut body = Vec::with_capacity(count);
        for _ in 0..count {
            let mut body_line = String::new();
            if r.read_line(&mut body_line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            body.push(body_line.trim_end_matches(['\n', '\r']).to_string());
        }
        Ok(Response::Ok(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse_command("ping"), Ok(Command::Ping));
        assert_eq!(parse_command("  STATS  "), Ok(Command::Stats));
        assert_eq!(parse_command("quit"), Ok(Command::Quit));
        assert_eq!(parse_command("Shutdown"), Ok(Command::Shutdown));
    }

    #[test]
    fn ddl_passes_through_verbatim() {
        let line = "create stream S (id int, payload int)";
        assert_eq!(parse_command(line), Ok(Command::Ddl(line.into())));
        assert!(parse_command("CREATE INDEX i").is_err());
    }

    #[test]
    fn shard_clause_parses_and_strips() {
        assert_eq!(
            parse_command("create stream S (id int, v int) shard by (id)"),
            Ok(Command::DdlSharded {
                ddl: "create stream S (id int, v int)".into(),
                stream: "S".into(),
                key: "id".into(),
                shards: None,
                persist: false,
            })
        );
        assert_eq!(
            parse_command("CREATE STREAM trades (sym varchar, px double) SHARD BY (sym) SHARDS 4"),
            Ok(Command::DdlSharded {
                ddl: "CREATE STREAM trades (sym varchar, px double)".into(),
                stream: "trades".into(),
                key: "sym".into(),
                shards: Some(4),
                persist: false,
            })
        );
        // trailing semicolons remain legal, with and without the clause
        let line = "create stream S (id int);";
        assert_eq!(parse_command(line), Ok(Command::Ddl(line.into())));
        assert_eq!(
            parse_command("create stream S (id int) shard by (id) shards 2;"),
            Ok(Command::DdlSharded {
                ddl: "create stream S (id int)".into(),
                stream: "S".into(),
                key: "id".into(),
                shards: Some(2),
                persist: false,
            })
        );
        // parenthesized column types stay inside the column list
        let line = "create stream S (name varchar(20), v int)";
        assert_eq!(parse_command(line), Ok(Command::Ddl(line.into())));
        assert_eq!(
            parse_command("create stream S (name varchar(20), v int) shard by (v)"),
            Ok(Command::DdlSharded {
                ddl: "create stream S (name varchar(20), v int)".into(),
                stream: "S".into(),
                key: "v".into(),
                shards: None,
                persist: false,
            })
        );
        // name glued to the column list parses as it always did
        assert_eq!(
            parse_command("create stream S(id int)"),
            Ok(Command::Ddl("create stream S(id int)".into()))
        );
        assert_eq!(
            parse_command("create stream S(id int) shard by (id)"),
            Ok(Command::DdlSharded {
                ddl: "create stream S(id int)".into(),
                stream: "S".into(),
                key: "id".into(),
                shards: None,
                persist: false,
            })
        );
        assert!(parse_command("CREATE STREAM S (id int) SHARD BY id").is_err());
        assert!(parse_command("CREATE STREAM S (id int) SHARD BY (id, v)").is_err());
        assert!(parse_command("CREATE STREAM S (id int) SHARD BY (id) SHARDS 0").is_err());
        assert!(parse_command("CREATE STREAM S (id int) SHARD BY (id) SHARDS x").is_err());
        assert!(parse_command("CREATE STREAM S (id int) SHARD BY (id) SHARDS 2 junk").is_err());
        assert!(parse_command("CREATE STREAM S (id int) FROBNICATE").is_err());
    }

    #[test]
    fn persist_clause_parses_and_strips() {
        assert_eq!(
            parse_command("create stream S (id int, v int) persist"),
            Ok(Command::DdlPersist {
                ddl: "create stream S (id int, v int)".into(),
                stream: "S".into(),
            })
        );
        // trailing semicolon and glued name stay legal
        assert_eq!(
            parse_command("CREATE STREAM S(id int) PERSIST;"),
            Ok(Command::DdlPersist {
                ddl: "CREATE STREAM S(id int)".into(),
                stream: "S".into(),
            })
        );
        // PERSIST composes with SHARD BY (persist first)
        assert_eq!(
            parse_command("create stream S (id int) persist shard by (id) shards 2"),
            Ok(Command::DdlSharded {
                ddl: "create stream S (id int)".into(),
                stream: "S".into(),
                key: "id".into(),
                shards: Some(2),
                persist: true,
            })
        );
        assert!(parse_command("create stream S (id int) persist nonsense").is_err());
        assert!(parse_command("create stream S (id int) shard by (id) persist").is_err());
    }

    #[test]
    fn flush_and_detach_commands() {
        assert_eq!(
            parse_command("FLUSH STREAM S"),
            Ok(Command::FlushStream {
                stream: "S".into()
            })
        );
        assert_eq!(
            parse_command("detach receptor S port 5001"),
            Ok(Command::DetachReceptor {
                stream: "S".into(),
                port: 5001,
            })
        );
        assert_eq!(
            parse_command("DETACH EMITTER hot PORT 5002"),
            Ok(Command::DetachEmitter {
                query: "hot".into(),
                port: 5002,
            })
        );
        assert!(parse_command("FLUSH STREAM").is_err());
        assert!(parse_command("FLUSH STREAM S extra").is_err());
        assert!(parse_command("FLUSH TABLE T").is_err());
        assert!(parse_command("DETACH RECEPTOR S PORT banana").is_err());
        assert!(parse_command("DETACH RECEPTOR S PORT 1 extra").is_err());
        assert!(parse_command("DETACH TAP S PORT 1").is_err());
        assert!(parse_command("DETACH RECEPTOR S").is_err());
    }

    #[test]
    fn register_query_keeps_sql_verbatim() {
        let cmd = parse_command(
            "REGISTER QUERY hot AS select id from [select * from S where v > 10] as W",
        )
        .unwrap();
        assert_eq!(
            cmd,
            Command::RegisterQuery {
                name: "hot".into(),
                sql: "select id from [select * from S where v > 10] as W".into(),
            }
        );
        // string literals keep their inner spacing
        let cmd = parse_command("register query q as select 'a  b' from T").unwrap();
        assert_eq!(
            cmd,
            Command::RegisterQuery {
                name: "q".into(),
                sql: "select 'a  b' from T".into(),
            }
        );
    }

    #[test]
    fn attach_commands() {
        assert_eq!(
            parse_command("ATTACH RECEPTOR S ON PORT 0"),
            Ok(Command::AttachReceptor {
                stream: "S".into(),
                port: 0,
                format: WireFormat::Text,
            })
        );
        assert_eq!(
            parse_command("attach emitter hot on port 9999"),
            Ok(Command::AttachEmitter {
                query: "hot".into(),
                port: 9999,
                format: WireFormat::Text,
            })
        );
        assert!(parse_command("ATTACH RECEPTOR S ON PORT banana").is_err());
        assert!(parse_command("ATTACH RECEPTOR S ON PORT 1 extra").is_err());
        assert!(parse_command("ATTACH TAP S ON PORT 1").is_err());
    }

    #[test]
    fn attach_with_format() {
        assert_eq!(
            parse_command("ATTACH RECEPTOR S ON PORT 0 FORMAT BINARY"),
            Ok(Command::AttachReceptor {
                stream: "S".into(),
                port: 0,
                format: WireFormat::Binary,
            })
        );
        assert_eq!(
            parse_command("attach emitter hot on port 7 format text"),
            Ok(Command::AttachEmitter {
                query: "hot".into(),
                port: 7,
                format: WireFormat::Text,
            })
        );
        assert!(parse_command("ATTACH RECEPTOR S ON PORT 0 FORMAT csv").is_err());
        assert!(parse_command("ATTACH RECEPTOR S ON PORT 0 FORMAT").is_err());
        assert!(parse_command("ATTACH RECEPTOR S ON PORT 0 BINARY").is_err());
        assert!(parse_command("ATTACH RECEPTOR S ON PORT 0 FORMAT BINARY extra").is_err());
    }

    #[test]
    fn explain_commands() {
        assert_eq!(
            parse_command("EXPLAIN select a from R where a > 1"),
            Ok(Command::Explain("select a from R where a > 1".into()))
        );
        assert_eq!(
            parse_command("explain query hot"),
            Ok(Command::ExplainQuery { name: "hot".into() })
        );
        assert!(parse_command("EXPLAIN").is_err());
        assert!(parse_command("EXPLAIN QUERY").is_err());
        assert!(parse_command("EXPLAIN QUERY hot extra").is_err());
        assert!(parse_command("EXPLAIN QUERY bad-name").is_err());
    }

    #[test]
    fn metrics_and_trace_commands() {
        assert_eq!(parse_command("METRICS"), Ok(Command::Metrics));
        assert_eq!(parse_command("metrics"), Ok(Command::Metrics));
        assert!(parse_command("METRICS now").is_err());
        assert_eq!(
            parse_command("TRACE DUMP"),
            Ok(Command::TraceDump { query: None })
        );
        assert_eq!(
            parse_command("trace dump query hot"),
            Ok(Command::TraceDump {
                query: Some("hot".into())
            })
        );
        assert_eq!(
            parse_command("TRACE QUERY hot ON"),
            Ok(Command::TraceStream {
                query: "hot".into(),
                on: true,
            })
        );
        assert_eq!(
            parse_command("trace query hot off"),
            Ok(Command::TraceStream {
                query: "hot".into(),
                on: false,
            })
        );
        assert_eq!(
            parse_command("METRICS HISTORY"),
            Ok(Command::MetricsHistory {
                series: None,
                last: None
            })
        );
        assert_eq!(
            parse_command("metrics history dc_ingest_rate"),
            Ok(Command::MetricsHistory {
                series: Some("dc_ingest_rate".into()),
                last: None
            })
        );
        assert_eq!(
            parse_command("METRICS HISTORY LAST 5"),
            Ok(Command::MetricsHistory {
                series: None,
                last: Some(5)
            })
        );
        assert_eq!(
            parse_command("METRICS HISTORY dc_ingest_rate LAST 2"),
            Ok(Command::MetricsHistory {
                series: Some("dc_ingest_rate".into()),
                last: Some(2)
            })
        );
        assert!(parse_command("METRICS HISTORY LAST").is_err());
        assert!(parse_command("METRICS HISTORY LAST x").is_err());
        assert!(parse_command("METRICS HISTORY s LAST 2 extra").is_err());
        assert!(parse_command("METRICS HISTORY bad-name").is_err());
        assert_eq!(
            parse_command("TRACE SPANS"),
            Ok(Command::TraceSpans { batch: None })
        );
        assert_eq!(
            parse_command("trace spans batch 12345"),
            Ok(Command::TraceSpans { batch: Some(12345) })
        );
        assert!(parse_command("TRACE SPANS 12345").is_err());
        assert!(parse_command("TRACE SPANS BATCH").is_err());
        assert!(parse_command("TRACE SPANS BATCH x").is_err());
        assert!(parse_command("TRACE SPANS BATCH 1 extra").is_err());
        assert_eq!(parse_command("HEALTH"), Ok(Command::Health));
        assert_eq!(parse_command("health"), Ok(Command::Health));
        assert!(parse_command("HEALTH now").is_err());
        assert!(parse_command("TRACE").is_err());
        assert!(parse_command("TRACE DUMP hot").is_err());
        assert!(parse_command("TRACE DUMP QUERY hot extra").is_err());
        assert!(parse_command("TRACE QUERY hot").is_err());
        assert!(parse_command("TRACE QUERY hot MAYBE").is_err());
        assert!(parse_command("TRACE QUERY bad-name ON").is_err());
    }

    #[test]
    fn rejects_bad_names() {
        assert!(parse_command("REGISTER QUERY bad-name AS select 1").is_err());
        assert!(parse_command("REGISTER QUERY q WITHOUT select 1").is_err());
        assert!(parse_command("frobnicate").is_err());
        assert!(parse_command("").is_err());
    }

    #[test]
    fn repl_commands() {
        assert_eq!(
            parse_command("REPL OPEN S AS CREATE STREAM S (id int)").unwrap(),
            Command::ReplOpen {
                stream: "S".into(),
                ddl: "CREATE STREAM S (id int)".into(),
            }
        );
        assert_eq!(
            parse_command("repl status S").unwrap(),
            Command::ReplStatus { stream: "S".into() }
        );
        assert_eq!(
            parse_command("REPL EXPORT S SEGS 3 EPOCH 7 OFFSET 4096").unwrap(),
            Command::ReplExport {
                stream: "S".into(),
                segs: 3,
                epoch: 7,
                offset: 4096,
            }
        );
        // segment file names carry '-' and '.' — must parse as a raw word
        assert_eq!(
            parse_command("REPL SEGMENT S seg-000002.dcs 128 deadbeef").unwrap(),
            Command::ReplSegment {
                stream: "S".into(),
                file: "seg-000002.dcs".into(),
                rows: 128,
                hex: "deadbeef".into(),
            }
        );
        assert_eq!(
            parse_command("REPL WAL S EPOCH 2 FROM 64 0a0b").unwrap(),
            Command::ReplWal {
                stream: "S".into(),
                epoch: 2,
                from: 64,
                hex: "0a0b".into(),
            }
        );
        // empty chunk: pure epoch adoption after a primary seal
        assert_eq!(
            parse_command("REPL WAL S EPOCH 3 FROM 0").unwrap(),
            Command::ReplWal {
                stream: "S".into(),
                epoch: 3,
                from: 0,
                hex: String::new(),
            }
        );
        assert_eq!(parse_command("REPL PROMOTE").unwrap(), Command::ReplPromote);
        assert!(parse_command("REPL PROMOTE now").is_err());
        assert!(parse_command("REPL EXPORT S SEGS x EPOCH 0 OFFSET 0").is_err());
        assert!(parse_command("REPL SEGMENT S seg-000001.dcs 10").is_err());
        assert!(parse_command("REPL FROBNICATE").is_err());
    }

    #[test]
    fn response_roundtrip() {
        let mut buf = Vec::new();
        Response::Ok(vec!["a=1".into(), "b|2".into()])
            .write_to(&mut buf)
            .unwrap();
        Response::Err("boom".into()).write_to(&mut buf).unwrap();
        Response::Ok(Vec::new()).write_to(&mut buf).unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(
            Response::read_from(&mut r).unwrap(),
            Response::Ok(vec!["a=1".into(), "b|2".into()])
        );
        assert_eq!(
            Response::read_from(&mut r).unwrap(),
            Response::Err("boom".into())
        );
        assert_eq!(Response::read_from(&mut r).unwrap(), Response::Ok(vec![]));
    }

    #[test]
    fn response_newline_injection_is_neutralized() {
        let mut buf = Vec::new();
        Response::Ok(vec!["evil\nOK 0".into()])
            .write_to(&mut buf)
            .unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(
            Response::read_from(&mut r).unwrap(),
            Response::Ok(vec!["evil OK 0".into()])
        );
    }
}
