//! Matrix Market (`.mtx`) I/O.
//!
//! Supports the subset of the format the SuiteSparse collection uses for
//! SpMV work: `matrix coordinate` with `real`, `integer` or `pattern`
//! fields and `general`, `symmetric` or `skew-symmetric` symmetry. Pattern
//! entries read as 1.0. Symmetric/skew entries are expanded to both
//! triangles on read (diagonal entries are not duplicated).
//!
//! This lets real SuiteSparse matrices be dropped into the experiment
//! drivers in place of the synthetic corpus.
//!
//! The reader expects ASCII text: tokens are separated by ASCII blanks,
//! and non-ASCII bytes may appear only in comments and ignored trailing
//! tokens, as long as each line is UTF-8. Any other input is an
//! [`MmError`], never a panic.

use std::io::{BufRead, Write};
use std::sync::OnceLock;

use dasp_fp16::Scalar;

use crate::coo::Coo;

/// A Matrix Market parse error with a line number where applicable.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed or unsupported content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "io error: {e}"),
            MmError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> MmError {
    MmError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Symmetry declared in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Body bytes each parallel chunk gets at least; a body too small for two
/// parses on the calling thread alone. At the reader's rate of a few
/// hundred MB/s a chunk is several hundred microseconds of work, against
/// a thread spawn and join of tens of microseconds, so each split pays
/// for itself.
const MIN_CHUNK: usize = 192 * 1024;

/// Reads a Matrix Market coordinate file into a [`Coo`].
///
/// The input is read once; the header and size line are parsed as text
/// and the entry lines by one byte-level pass, split at line boundaries
/// across the available cores when the body is large. Entries keep file
/// order. Errors name the 1-based line they occur on (the entry-count
/// check reports line 0).
pub fn read_matrix_market<S: Scalar, R: BufRead>(mut reader: R) -> Result<Coo<S>, MmError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let mut pos = 0;
    let mut line_no = 0;

    // Header line.
    let (hline_no, header) = loop {
        match next_line(&bytes, &mut pos, &mut line_no)? {
            Some(l) if !l.trim().is_empty() => break (line_no, l),
            Some(_) => {}
            None => return Err(parse_err(1, "empty file")),
        }
    };
    let head: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if head.len() < 5 || head[0] != "%%matrixmarket" || head[1] != "matrix" {
        return Err(parse_err(
            hline_no,
            "expected '%%MatrixMarket matrix ...' header",
        ));
    }
    if head[2] != "coordinate" {
        return Err(parse_err(
            hline_no,
            format!("unsupported layout '{}'", head[2]),
        ));
    }
    let field = head[3].as_str();
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(parse_err(hline_no, format!("unsupported field '{field}'")));
    }
    let symmetry = match head[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        s => return Err(parse_err(hline_no, format!("unsupported symmetry '{s}'"))),
    };

    // Size line (after comments).
    let (sline_no, size_line) = loop {
        match next_line(&bytes, &mut pos, &mut line_no)? {
            Some(l) => {
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (line_no, l);
            }
            None => return Err(parse_err(hline_no, "missing size line")),
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(parse_err(sline_no, "size line must be 'rows cols nnz'"));
    }
    // `Coo` indexes with `u32`.
    let dim = |t: &str| t.parse().ok().filter(|&n| n <= u32::MAX as usize);
    let rows: usize = dim(dims[0]).ok_or_else(|| parse_err(sline_no, "bad row count"))?;
    let cols: usize = dim(dims[1]).ok_or_else(|| parse_err(sline_no, "bad col count"))?;
    let nnz: usize = dims[2]
        .parse()
        .map_err(|_| parse_err(sline_no, "bad nnz count"))?;

    let body = &bytes[pos..];
    let layout = Layout::new(rows, cols, field == "pattern", symmetry);
    let (entries, seen) =
        parse_body(body, &layout, nnz, chunk_count(body.len())).map_err(|(at, msg)| {
            let before = body[..at].iter().filter(|&&b| b == b'\n').count();
            parse_err(sline_no + 1 + before, msg)
        })?;
    if seen != nnz {
        return Err(parse_err(
            0,
            format!("header declares {nnz} entries, found {seen}"),
        ));
    }
    Ok(Coo {
        rows,
        cols,
        entries,
    })
}

/// Takes the next `\n`-terminated line of `bytes[*pos..]` as text,
/// advancing `*pos` past it and `*line_no` to its 1-based number.
fn next_line<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    line_no: &mut usize,
) -> Result<Option<&'a str>, MmError> {
    if *pos == bytes.len() {
        return Ok(None);
    }
    let rest = &bytes[*pos..];
    let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    *pos += (len + 1).min(rest.len());
    *line_no += 1;
    std::str::from_utf8(&rest[..len])
        .map(Some)
        .map_err(|_| parse_err(*line_no, NOT_UTF8))
}

const NOT_UTF8: &str = "line is not valid UTF-8";

/// What the header fixes for every entry line.
struct Layout {
    /// Largest 1-based row and column an entry may name. A symmetric or
    /// skew-symmetric entry is mirrored, so both bounds are then the
    /// smaller dimension.
    max_row: usize,
    max_col: usize,
    pattern: bool,
    symmetry: Symmetry,
}

impl Layout {
    fn new(rows: usize, cols: usize, pattern: bool, symmetry: Symmetry) -> Self {
        let (max_row, max_col) = match symmetry {
            Symmetry::General => (rows, cols),
            _ => (rows.min(cols), rows.min(cols)),
        };
        Layout {
            max_row,
            max_col,
            pattern,
            symmetry,
        }
    }
}

/// Parsed entry lines: their triplets in order, and how many lines there
/// were (a mirrored line yields two triplets).
type Parsed<S> = (Vec<(u32, u32, S)>, usize);

/// A body parse failure: the byte offset of the failing line's start
/// within the body, and the message.
type BodyError = (usize, String);

/// The number of chunks a body of `len` bytes is parsed in.
fn chunk_count(len: usize) -> usize {
    // `available_parallelism` reads cgroup files on every call, which
    // costs tens of microseconds; the core count is read once.
    static THREADS: OnceLock<usize> = OnceLock::new();
    if len < 2 * MIN_CHUNK {
        return 1;
    }
    let threads =
        *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    threads.min(len / MIN_CHUNK)
}

/// Parses the entry lines in `chunks` pieces split at line boundaries,
/// each on its own thread, and concatenates them in order. The
/// reservation is bounded by the body size, never by the header's `nnz`
/// alone: an entry line takes at least 4 bytes, and a mirrored entry
/// yields two triplets.
fn parse_body<S: Scalar>(
    body: &[u8],
    layout: &Layout,
    nnz: usize,
    chunks: usize,
) -> Result<Parsed<S>, BodyError> {
    let mirror = if layout.symmetry == Symmetry::General {
        1
    } else {
        2
    };
    let cap = nnz.min(body.len() / 4 + 1) * mirror;
    let starts = chunk_starts(body, chunks);
    let piece = |k: usize| {
        let end = starts.get(k + 1).copied().unwrap_or(body.len());
        // The first piece collects the others, so it reserves for all.
        let reserve = if k == 0 { cap } else { cap / starts.len() };
        parse_chunk::<S>(&body[starts[k]..end], layout, reserve)
            .map_err(|(at, msg)| (starts[k] + at, msg))
    };
    let mut parts = if starts.len() == 1 {
        vec![piece(0)]
    } else {
        std::thread::scope(|s| {
            let rest: Vec<_> = (1..starts.len())
                .map(|k| s.spawn(move || piece(k)))
                .collect();
            let mut parts = vec![piece(0)];
            parts.extend(
                rest.into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            );
            parts
        })
    }
    .into_iter();
    let (mut entries, mut seen) = parts.next().expect("at least one chunk")?;
    for part in parts {
        let (more, n) = part?;
        entries.extend_from_slice(&more);
        seen += n;
    }
    Ok((entries, seen))
}

/// Start offsets of up to `chunks` pieces of `body`, each after the first
/// beginning just past a newline.
fn chunk_starts(body: &[u8], chunks: usize) -> Vec<usize> {
    let mut starts = vec![0];
    for k in 1..chunks {
        let from = (body.len() / chunks * k).max(starts[starts.len() - 1]);
        match body[from..].iter().position(|&b| b == b'\n') {
            Some(p) if from + p + 1 < body.len() => starts.push(from + p + 1),
            _ => break,
        }
    }
    starts
}

/// The ASCII bytes `char::is_whitespace` accepts: the token separators
/// and the newline.
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// Skips blanks from `*i`, then returns the token that follows (empty at
/// the end of the line) and moves `*i` past it.
fn token<'a>(s: &'a [u8], i: &mut usize) -> &'a [u8] {
    while *i < s.len() && s[*i] != b'\n' && is_space(s[*i]) {
        *i += 1;
    }
    let start = *i;
    while *i < s.len() && !is_space(s[*i]) {
        *i += 1;
    }
    &s[start..*i]
}

/// Parses an index token as `usize::from_str` does: an optional `+`, then
/// one or more decimal digits, without overflow.
fn parse_index(tok: &[u8]) -> Option<usize> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d < 10 {
            n.checked_mul(10)?.checked_add(d as usize)
        } else {
            None
        }
    })
}

/// Moves `*i` past the end of the current line. Whatever is skipped must
/// be UTF-8, as everywhere else in the file.
fn skip_line(s: &[u8], i: &mut usize) -> Result<(), &'static str> {
    if s.get(*i) == Some(&b'\n') {
        *i += 1;
        return Ok(());
    }
    let rest = &s[*i..];
    let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
    let skipped = &rest[..len];
    if !skipped.is_ascii() && std::str::from_utf8(skipped).is_err() {
        return Err(NOT_UTF8);
    }
    *i += (len + 1).min(rest.len());
    Ok(())
}

/// Parses the entry lines of one chunk. Errors carry the byte offset of
/// the failing line within the chunk.
fn parse_chunk<S: Scalar>(
    s: &[u8],
    layout: &Layout,
    reserve: usize,
) -> Result<Parsed<S>, BodyError> {
    let mut out = Vec::with_capacity(reserve);
    let mut seen = 0usize;
    let mut i = 0;
    while i < s.len() {
        let line = i;
        let fail = |msg: &str| (line, msg.to_string());
        let first = token(s, &mut i);
        if first.is_empty() || first[0] == b'%' {
            // A blank line (`token` stopped at its newline) or a comment.
            i = line;
            skip_line(s, &mut i).map_err(fail)?;
            continue;
        }
        let r = parse_index(first).ok_or_else(|| fail("bad row index"))?;
        let c = match token(s, &mut i) {
            [] => return Err(fail("missing col")),
            t => parse_index(t).ok_or_else(|| fail("bad col index"))?,
        };
        if r == 0 || c == 0 || r > layout.max_row || c > layout.max_col {
            return Err((line, format!("coordinate ({r},{c}) out of range")));
        }
        let v: f64 = if layout.pattern {
            1.0
        } else {
            match token(s, &mut i) {
                [] => return Err(fail("missing value")),
                t => std::str::from_utf8(t)
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| fail("bad value"))?,
            }
        };
        skip_line(s, &mut i).map_err(fail)?;
        // In range above, and every dimension fits `u32`.
        let (r, c) = ((r - 1) as u32, (c - 1) as u32);
        out.push((r, c, S::from_f64(v)));
        match layout.symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r != c => out.push((c, r, S::from_f64(v))),
            Symmetry::SkewSymmetric if r != c => out.push((c, r, S::from_f64(-v))),
            _ => {}
        }
        seen += 1;
    }
    Ok((out, seen))
}

/// Writes a [`Coo`] as a general real coordinate Matrix Market file.
pub fn write_matrix_market<S: Scalar, W: Write>(coo: &Coo<S>, mut w: W) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by dasp-sparse")?;
    writeln!(w, "{} {} {}", coo.rows, coo.cols, coo.entries.len())?;
    for &(r, c, v) in &coo.entries {
        writeln!(w, "{} {} {:e}", r + 1, c + 1, v.to_f64())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_str(s: &str) -> Result<Coo<f64>, MmError> {
        read_matrix_market(std::io::BufReader::new(s.as_bytes()))
    }

    #[test]
    fn reads_general_real() {
        let src = "%%MatrixMarket matrix coordinate real general\n\
                   % a comment\n\
                   3 3 2\n\
                   1 1 2.5\n\
                   3 2 -1e2\n";
        let m = read_str(src).unwrap();
        assert_eq!((m.rows, m.cols), (3, 3));
        assert_eq!(m.entries, vec![(0, 0, 2.5), (2, 1, -100.0)]);
    }

    #[test]
    fn reads_symmetric_and_mirrors() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
                   2 2 2\n\
                   1 1 1.0\n\
                   2 1 5.0\n";
        let mut m = read_str(src).unwrap();
        m.sort_dedup();
        assert_eq!(m.entries, vec![(0, 0, 1.0), (0, 1, 5.0), (1, 0, 5.0)]);
    }

    #[test]
    fn reads_skew_symmetric_with_negation() {
        let src = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                   2 2 1\n\
                   2 1 3.0\n";
        let mut m = read_str(src).unwrap();
        m.sort_dedup();
        assert_eq!(m.entries, vec![(0, 1, -3.0), (1, 0, 3.0)]);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 3 2\n\
                   1 3\n\
                   2 1\n";
        let m = read_str(src).unwrap();
        assert_eq!(m.entries, vec![(0, 2, 1.0), (1, 0, 1.0)]);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_str("%%NotMM matrix\n1 1 0\n").is_err());
        assert!(read_str("%%MatrixMarket matrix array real general\n1 1 0\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_coordinates() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(matches!(read_str(src), Err(MmError::Parse { .. })));
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_str(src).is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = Coo::<f64>::new(4, 5);
        m.push(0, 4, 1.25);
        m.push(3, 0, -7.5);
        m.push(2, 2, 0.001);
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back: Coo<f64> = read_matrix_market(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.rows, 4);
        assert_eq!(back.cols, 5);
        let mut a = m.clone();
        a.sort_dedup();
        let mut b = back.clone();
        b.sort_dedup();
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn hostile_nnz_is_a_parse_error() {
        // Reserving the declared 10^15 entries would abort the process.
        let src = "%%MatrixMarket matrix coordinate real general\n1 1 999999999999999\n1 1 1.0\n";
        match read_str(src) {
            Err(MmError::Parse { line: 0, msg }) => {
                assert_eq!(msg, "header declares 999999999999999 entries, found 1")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dimensions_beyond_u32_are_parse_errors() {
        for (size, want) in [
            ("5000000000 1 1", "bad row count"),
            ("1 5000000000 1", "bad col count"),
        ] {
            let src = format!("%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n");
            match read_str(&src) {
                Err(MmError::Parse { line: 2, msg }) => assert_eq!(msg, want),
                other => panic!("{size}: {other:?}"),
            }
        }
        let src = "%%MatrixMarket matrix coordinate real general\n4294967295 1 0\n";
        assert_eq!(read_str(src).unwrap().rows, u32::MAX as usize);
    }

    #[test]
    fn symmetric_entry_whose_mirror_is_out_of_range_is_a_parse_error() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n3 2 2\n2 1 1.0\n3 1 1.0\n";
        match read_str(src) {
            Err(MmError::Parse { line: 4, msg }) => {
                assert_eq!(msg, "coordinate (3,1) out of range")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_is_a_parse_error_wherever_it_sits() {
        let head = b"%%MatrixMarket matrix coordinate real general\n";
        for (body, line) in [
            (&b"% \xff\n1 1 1\n1 1 1.0\n"[..], 2),
            (b"1 1 1\n1 1 1.0 \xc3\n", 3),
            (b"1 1 1\n\xff\n1 1 1.0\n", 3),
        ] {
            let src = [&head[..], body].concat();
            match read_matrix_market::<f64, _>(&src[..]) {
                Err(MmError::Parse { line: l, .. }) => assert_eq!(l, line),
                other => panic!("{other:?}"),
            }
        }
    }

    /// A body of `n` general real entry lines, about 24 bytes each.
    fn body(n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for k in 0..n {
            let v = (k as f64 + 0.5).sqrt() * if k % 3 == 0 { -1.0 } else { 1e-7 };
            if k % 97 == 0 {
                out.extend_from_slice(b"% comment\r\n\n");
            }
            writeln!(out, "{} {}\t{v:e}", k % 1000 + 1, k % 777 + 1).unwrap();
        }
        out
    }

    #[test]
    fn every_chunk_count_parses_alike() {
        let layout = Layout::new(1000, 777, false, Symmetry::General);
        let clean = body(30_000);
        let whole = parse_body::<f64>(&clean, &layout, 30_000, 1).unwrap();
        assert_eq!(whole.1, 30_000);
        // Malformed lines early, mid-body and on the last line.
        for at in [0.1, 0.55, 1.0] {
            let mut bad = clean.clone();
            let nl = bad[..bad.len() - 1]
                .iter()
                .rposition(|&b| b == b'\n')
                .unwrap();
            let from = ((bad.len() as f64 * at) as usize).min(nl);
            let start = from + bad[from..].iter().position(|&b| b == b'\n').unwrap() + 1;
            bad.splice(start..start, b"7 x 1.0\n".iter().copied());
            let want = parse_body::<f64>(&bad, &layout, 30_000, 1).unwrap_err();
            assert_eq!(want, (start, "bad col index".to_string()));
            for chunks in 2..=5 {
                assert_eq!(chunk_starts(&bad, chunks).len(), chunks);
                assert_eq!(
                    parse_body::<f64>(&bad, &layout, 30_000, chunks).unwrap_err(),
                    want
                );
            }
        }
        for chunks in 2..=5 {
            let (entries, seen) = parse_body::<f64>(&clean, &layout, 30_000, chunks).unwrap();
            assert_eq!(seen, whole.1);
            assert!(entries
                .iter()
                .zip(&whole.0)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && a.2.to_bits() == b.2.to_bits()));
            assert_eq!(entries.len(), whole.0.len());
        }
    }

    #[test]
    fn chunks_start_after_newlines() {
        assert_eq!(chunk_starts(b"1 1\n2 2\n3 3\n4 4", 2), vec![0, 8]);
        // A body with no newline, or one only at its end, stays whole.
        assert_eq!(chunk_starts(b"1 1 1.0", 4), vec![0]);
        assert_eq!(chunk_starts(b"1 1 1.0\n", 4), vec![0]);
    }

    #[test]
    fn header_is_case_insensitive() {
        let src = "%%MatrixMarket MATRIX Coordinate Real GENERAL\n1 1 1\n1 1 9.0\n";
        let m = read_str(src).unwrap();
        assert_eq!(m.entries, vec![(0, 0, 9.0)]);
    }
}
