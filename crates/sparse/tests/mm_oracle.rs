//! The byte-level Matrix Market reader against the line-based reader it
//! replaced, kept below verbatim as the oracle.
//!
//! On ASCII input the two must agree exactly: bit-identical entries in the
//! same order, or the same error variant, message and line number. Inputs
//! cover every field and symmetry, CRLF line ends, interleaved comment and
//! blank lines, leading and trailing blanks, extra trailing tokens and
//! malformed lines planted early, mid-file and on the last line. Large
//! inputs span the parallel split: their bodies are big enough for two and
//! for three or more chunks, as many as the host has cores for. On
//! non-ASCII input the reader must return a typed error or the oracle's
//! entries, never panic.

use std::io::BufRead;

use dasp_fp16::Scalar;
use dasp_sparse::mm::{read_matrix_market, MmError};
use dasp_sparse::Coo;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn parse_err(line: usize, msg: impl Into<String>) -> MmError {
    MmError::Parse {
        line,
        msg: msg.into(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// The line-based reader, verbatim.
fn read_matrix_market_by_lines<S: Scalar, R: BufRead>(reader: R) -> Result<Coo<S>, MmError> {
    let mut lines = reader.lines().enumerate();

    // Header line.
    let (hline_no, header) = loop {
        match lines.next() {
            Some((n, l)) => {
                let l = l?;
                if !l.trim().is_empty() {
                    break (n + 1, l);
                }
            }
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
        match lines.next() {
            Some((n, l)) => {
                let l = l?;
                let t = l.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (n + 1, l);
            }
            None => return Err(parse_err(hline_no, "missing size line")),
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(parse_err(sline_no, "size line must be 'rows cols nnz'"));
    }
    let rows: usize = dims[0]
        .parse()
        .map_err(|_| parse_err(sline_no, "bad row count"))?;
    let cols: usize = dims[1]
        .parse()
        .map_err(|_| parse_err(sline_no, "bad col count"))?;
    let nnz: usize = dims[2]
        .parse()
        .map_err(|_| parse_err(sline_no, "bad nnz count"))?;

    let mut coo = Coo::new(rows, cols);
    coo.entries.reserve(nnz);
    let mut seen = 0usize;
    for (n, l) in lines {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let line_no = n + 1;
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err(line_no, "missing row"))?
            .parse()
            .map_err(|_| parse_err(line_no, "bad row index"))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err(line_no, "missing col"))?
            .parse()
            .map_err(|_| parse_err(line_no, "bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(
                line_no,
                format!("coordinate ({r},{c}) out of range"),
            ));
        }
        let v: f64 = if field == "pattern" {
            1.0
        } else {
            it.next()
                .ok_or_else(|| parse_err(line_no, "missing value"))?
                .parse()
                .map_err(|_| parse_err(line_no, "bad value"))?
        };
        let (r, c) = (r - 1, c - 1);
        coo.push(r, c, S::from_f64(v));
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r != c => coo.push(c, r, S::from_f64(v)),
            Symmetry::SkewSymmetric if r != c => coo.push(c, r, S::from_f64(-v)),
            _ => {}
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(
            0,
            format!("header declares {nnz} entries, found {seen}"),
        ));
    }
    Ok(coo)
}

const FIELDS: [&str; 3] = ["real", "integer", "pattern"];
const SYMMETRIES: [&str; 3] = ["general", "symmetric", "skew-symmetric"];
/// Token separators, made of the ASCII bytes other than the newline that
/// the oracle's `split_whitespace` splits on.
const SEPS: [&str; 7] = [" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\r "];

fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// One generated file: its lines (without line ends) and, for each entry,
/// the index of its line.
struct File {
    pattern: bool,
    lines: Vec<String>,
    entry_lines: Vec<usize>,
    crlf: bool,
    final_newline: bool,
}

impl File {
    fn bytes(&self) -> Vec<u8> {
        let eol = if self.crlf { "\r\n" } else { "\n" };
        let mut s = self.lines.join(eol);
        if self.final_newline {
            s.push_str(eol);
        }
        s.into_bytes()
    }
}

/// A random value token for `field`, in one of the spellings a writer
/// might use.
fn value(rng: &mut SmallRng, field: &str) -> String {
    if field == "integer" {
        return format!("{}", rng.gen_range(-1000i64..1000));
    }
    let v: f64 = rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-30i32..30));
    match rng.gen_range(0..6) {
        0 => format!("{v:e}"),
        1 => format!("{v}"),
        2 => format!("{v:.3}"),
        3 => format!("{v:.17E}"),
        4 => format!("+{}", v.abs()),
        _ => format!("{}", rng.gen_range(-9i32..10)),
    }
}

/// A random file with `n` entries. Symmetric entries stay within the
/// smaller dimension, where the oracle never panics.
fn generate(rng: &mut SmallRng, n: usize) -> File {
    let field = pick(rng, &FIELDS);
    let symmetry = pick(rng, &SYMMETRIES);
    let rows = rng.gen_range(1usize..2000);
    let cols = if symmetry == "general" || rng.gen_bool(0.2) {
        rng.gen_range(1usize..2000)
    } else {
        rows
    };
    let (max_r, max_c) = if symmetry == "general" {
        (rows, cols)
    } else {
        (rows.min(cols), rows.min(cols))
    };
    let noisy = rng.gen_bool(0.5);
    let mut lines = Vec::new();
    if rng.gen_bool(0.2) {
        lines.push(String::new());
    }
    let header = format!("%%MatrixMarket matrix coordinate {field} {symmetry}");
    lines.push(if rng.gen_bool(0.3) {
        header.to_uppercase()
    } else {
        header
    });
    for _ in 0..rng.gen_range(0..3) {
        lines.push("% a comment line".to_string());
    }
    lines.push(format!(
        "{}{rows}{}{cols}{}{n}{}",
        if noisy { " " } else { "" },
        pick(rng, &SEPS),
        pick(rng, &SEPS),
        if noisy { "\t" } else { "" },
    ));
    let mut entry_lines = Vec::with_capacity(n);
    for _ in 0..n {
        if noisy && rng.gen_bool(0.05) {
            lines.push(pick(rng, &["", "%", "  % indented comment", " \t", "%%"]).to_string());
        }
        let r = rng.gen_range(1..=max_r);
        let c = rng.gen_range(1..=max_c);
        let mut l = String::new();
        if noisy && rng.gen_bool(0.1) {
            l.push_str(pick(rng, &SEPS));
        }
        l.push_str(&format!("{r}{}{c}", pick(rng, &SEPS)));
        if field != "pattern" {
            l.push_str(pick(rng, &SEPS));
            l.push_str(&value(rng, field));
        }
        if noisy && rng.gen_bool(0.1) {
            l.push_str(pick(rng, &[" extra", "\t1 2 3", " %tail", " ", "\t"]));
        }
        entry_lines.push(lines.len());
        lines.push(l);
    }
    if noisy && rng.gen_bool(0.3) {
        lines.push(String::new());
    }
    File {
        pattern: field == "pattern",
        lines,
        entry_lines,
        crlf: rng.gen_bool(0.3),
        final_newline: !noisy || rng.gen_bool(0.5),
    }
}

/// Replaces entry line `k` with a malformed one.
fn plant(rng: &mut SmallRng, file: &mut File, k: usize) {
    file.lines[file.entry_lines[k]] = match rng.gen_range(0..10) {
        0 => "x 1 1.0".to_string(),
        1 => "1".to_string(),
        2 => "1 y 2.0".to_string(),
        3 => "0 1 1.0".to_string(),
        4 => "1 999999999 1.0".to_string(),
        5 => "99999999999999999999999 1 1.0".to_string(),
        6 => "+ 1 1.0".to_string(),
        7 => "1 1 1.2.3".to_string(),
        8 => "-1 1 1.0".to_string(),
        _ if file.pattern => "1\t".to_string(),
        _ => "1 1".to_string(),
    };
}

fn read_both(bytes: &[u8]) -> (Result<Coo<f64>, MmError>, Result<Coo<f64>, MmError>) {
    (
        read_matrix_market(bytes),
        read_matrix_market_by_lines(std::io::BufReader::new(bytes)),
    )
}

/// Asserts the two results agree exactly.
fn assert_same(new: &Result<Coo<f64>, MmError>, oracle: &Result<Coo<f64>, MmError>, what: &str) {
    match (new, oracle) {
        (Ok(a), Ok(b)) => {
            assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{what}: shape");
            assert_eq!(a.entries.len(), b.entries.len(), "{what}: entry count");
            for (k, (x, y)) in a.entries.iter().zip(&b.entries).enumerate() {
                assert!(
                    x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits(),
                    "{what}: entry {k}: {x:?} vs {y:?}"
                );
            }
        }
        (Err(MmError::Parse { line: l1, msg: m1 }), Err(MmError::Parse { line: l2, msg: m2 })) => {
            assert_eq!((l1, m1), (l2, m2), "{what}: error");
        }
        _ => panic!("{what}: reader {new:?} vs oracle {oracle:?}"),
    }
}

#[test]
fn small_files_match_the_oracle() {
    let mut rng = SmallRng::seed_from_u64(1);
    for case in 0..600 {
        let n = rng.gen_range(0..40);
        let mut file = generate(&mut rng, n);
        if n > 0 && rng.gen_bool(0.3) {
            let k = rng.gen_range(0..n);
            plant(&mut rng, &mut file, k);
        }
        let mut bytes = file.bytes();
        if rng.gen_bool(0.1) {
            // A wrong entry count: drop the last entry line.
            let cut = bytes.iter().rposition(|&b| b == b'\n').unwrap_or(0);
            bytes.truncate(cut);
        }
        let (new, oracle) = read_both(&bytes);
        assert_same(&new, &oracle, &format!("case {case}"));
    }
}

#[test]
fn header_errors_match_the_oracle() {
    for src in [
        "",
        "\n \n",
        "%%MatrixMarket matrix\n",
        "%%NotMM matrix coordinate real general\n1 1 0\n",
        "%%MatrixMarket matrix array real general\n1 1 0\n",
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
        "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
        "%%MatrixMarket matrix coordinate real general\n% only comments\n",
        "%%MatrixMarket matrix coordinate real general\n1 1\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 1 1\n",
        "%%MatrixMarket matrix coordinate real general\nx 1 0\n",
        "%%MatrixMarket matrix coordinate real general\n1 -1 0\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 x\n",
        "%%MatrixMarket matrix coordinate real general\n+2 +2 +1\n+2 +1 +1.5\n",
        "\r\n%%MatrixMarket matrix coordinate real general\r\n\r\n2 2 0\r\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n2 2 1.0 \r",
    ] {
        let (new, oracle) = read_both(src.as_bytes());
        assert_same(&new, &oracle, &format!("{src:?}"));
    }
}

#[test]
fn large_files_match_the_oracle_across_the_chunk_split() {
    let mut rng = SmallRng::seed_from_u64(2);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // About 8k, 20k and 40k entry lines: bodies of roughly 0.2, 0.5 and
    // 1 MB, below, above and well above the size that splits.
    for (case, n) in [8_000, 20_000, 40_000, 20_000, 40_000, 40_000]
        .into_iter()
        .enumerate()
    {
        let mut file = generate(&mut rng, n);
        match case {
            3 => plant(&mut rng, &mut file, n * 3 / 5),
            4 => plant(&mut rng, &mut file, n - 1),
            5 => {
                let at = file.entry_lines[n * 4 / 5];
                file.lines.remove(at);
            }
            _ => {}
        }
        let bytes = file.bytes();
        let (new, oracle) = read_both(&bytes);
        let what = format!("case {case}: {} bytes, {threads} cores", bytes.len());
        assert_same(&new, &oracle, &what);
        assert_eq!(new.is_ok(), case < 3, "{what}");
    }
}

#[test]
fn non_ascii_input_gives_a_typed_error_or_the_oracles_entries() {
    let mut rng = SmallRng::seed_from_u64(3);
    let inserts: [&[u8]; 8] = [
        "é".as_bytes(),
        "\u{a0}".as_bytes(),
        "\u{85}".as_bytes(),
        "\u{3000}".as_bytes(),
        "\u{2028}".as_bytes(),
        b"\xff",
        b"\xc3",
        b"\xe2\x80",
    ];
    for case in 0..400 {
        let n = rng.gen_range(0..20);
        let mut bytes = generate(&mut rng, n).bytes();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..=bytes.len());
            let ins = inserts[rng.gen_range(0..inserts.len())];
            bytes.splice(at..at, ins.iter().copied());
        }
        let (new, oracle) = read_both(&bytes);
        if let Ok(a) = &new {
            match &oracle {
                Ok(_) => assert_same(&new, &oracle, &format!("case {case}")),
                Err(e) => panic!("case {case}: reader accepted {a:?}, oracle said {e}"),
            }
        }
    }
}
