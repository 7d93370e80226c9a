//! Minimal, dependency-free CSV reading and writing (RFC-4180 style
//! quoting) for loading datasets and exporting anonymized results.

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

use crate::builder::RelationBuilder;
use crate::relation::Relation;
use crate::schema::{AttrRole, Attribute, Schema};

/// Errors produced by CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A record has a different field count than the header; `line`
    /// is the physical line the record starts on.
    RaggedRow { line: usize, expected: usize, found: usize },
    /// A quoted field was never closed.
    UnterminatedQuote { line: usize },
    /// The input had no header row.
    Empty,
    /// The role list length does not match the header width.
    RoleMismatch { header: usize, roles: usize },
    /// Underlying I/O failure (message only, to keep the error `Eq`).
    Io(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::RaggedRow { line, expected, found } => {
                write!(f, "line {line}: expected {expected} fields, found {found}")
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::Empty => write!(f, "empty CSV input"),
            CsvError::RoleMismatch { header, roles } => {
                write!(f, "header has {header} columns but {roles} roles given")
            }
            CsvError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// How a field ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    /// At a `,`: the record continues.
    Field,
    /// At `\n` or `\r\n`: the record is complete.
    Record,
    /// At the end of the input.
    Eof,
}

/// Whether `b` ends an unquoted run: a delimiter, a quote, or a `\r`
/// (which is literal unless a `\n` follows). All four are ASCII, so a
/// run split at them always falls on UTF-8 boundaries.
fn is_special(b: u8) -> bool {
    matches!(b, b',' | b'\n' | b'\r' | b'"')
}

/// The one CSV tokenizer: a single forward pass over the bytes of the
/// input. An unquoted field is handed out as a slice of the input; a
/// field with quotes (or a literal lone `\r`) is unescaped into one
/// reused scratch buffer. A quote opens a quoted section anywhere in a
/// field (`a"b,c"` reads as `ab,c`), and `""` inside one is a literal
/// quote.
struct Tokenizer<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based physical line of `pos`: one plus the `\n`s consumed.
    line: usize,
    scratch: String,
}

impl<'a> Tokenizer<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0, line: 1, scratch: String::new() }
    }

    /// Reads the next record, handing each field to `sink(column,
    /// value)` as soon as it is read. Returns the record's field
    /// count, or `None` at the end of the input. A last line without a
    /// newline is a record unless it is a single empty field.
    fn next_record(
        &mut self,
        mut sink: impl FnMut(usize, &str),
    ) -> Result<Option<usize>, CsvError> {
        if self.pos == self.text.len() {
            return Ok(None);
        }
        let mut n = 0;
        loop {
            let (value, end) = self.field()?;
            if end == End::Eof && n == 0 && value.is_empty() {
                return Ok(None);
            }
            sink(n, value);
            n += 1;
            if end != End::Field {
                return Ok(Some(n));
            }
        }
    }

    /// Reads one field and consumes its terminator.
    fn field(&mut self) -> Result<(&str, End), CsvError> {
        let text = self.text;
        let bytes = text.as_bytes();
        let start = self.pos;
        let mut i = start;
        while i < bytes.len() && !is_special(bytes[i]) {
            i += 1;
        }
        // Fast path: a plain field is a slice of the input.
        if let Some(end) = self.terminate(i) {
            return Ok((&text[start..i], end));
        }
        // Slow path: unescape into the scratch buffer, copying literal
        // runs `run..i` whole.
        self.scratch.clear();
        let mut run = start;
        let mut in_quotes = false;
        let end = loop {
            if in_quotes {
                match bytes.get(i) {
                    None => return Err(CsvError::UnterminatedQuote { line: self.line }),
                    Some(b'"') => {
                        self.scratch.push_str(&text[run..i]);
                        if bytes.get(i + 1) == Some(&b'"') {
                            self.scratch.push('"');
                            i += 2;
                        } else {
                            in_quotes = false;
                            i += 1;
                        }
                        run = i;
                    }
                    Some(b'\n') => {
                        self.line += 1;
                        i += 1;
                    }
                    Some(_) => i += 1,
                }
            } else if bytes.get(i) == Some(&b'"') {
                self.scratch.push_str(&text[run..i]);
                in_quotes = true;
                i += 1;
                run = i;
            } else if let Some(end) = self.terminate(i) {
                break end;
            } else {
                // Any other byte, a lone `\r` included, is literal.
                i += 1;
            }
        };
        self.scratch.push_str(&text[run..i]);
        Ok((&self.scratch, end))
    }

    /// If an unquoted field ends at byte `i` (at `,`, `\n`, `\r\n` or
    /// the end of the input), consumes the terminator and says which it
    /// was; `None` for a quote or a lone `\r`.
    fn terminate(&mut self, i: usize) -> Option<End> {
        let bytes = self.text.as_bytes();
        let (end, len) = match bytes.get(i) {
            None => (End::Eof, 0),
            Some(b',') => (End::Field, 1),
            Some(b'\n') => (End::Record, 1),
            Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => (End::Record, 2),
            Some(_) => return None,
        };
        if end == End::Record {
            self.line += 1;
        }
        self.pos = i + len;
        Some(end)
    }

    /// Resolves a structural error found mid-input. The rest of the
    /// input is scanned for its quote state first: an unterminated
    /// quoted field anywhere outranks `err`, as when the whole text was
    /// parsed before any record was checked.
    fn finish_with(&mut self, err: CsvError) -> CsvError {
        loop {
            match self.next_record(|_, _| {}) {
                Ok(Some(_)) => {}
                Ok(None) => return err,
                Err(unterminated) => return unterminated,
            }
        }
    }
}

/// Parses CSV text into records. Handles quoted fields, embedded
/// commas, embedded quotes (`""`), and embedded newlines. Accepts both
/// `\n` and `\r\n` line endings. A trailing newline does not produce an
/// empty record.
pub fn parse_csv(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    if text.is_empty() {
        return Err(CsvError::Empty);
    }
    let mut tok = Tokenizer::new(text);
    let mut records = Vec::new();
    loop {
        let mut record = Vec::new();
        if tok.next_record(|_, v| record.push(v.to_owned()))?.is_none() {
            return Ok(records);
        }
        records.push(record);
    }
}

/// Quotes a field if it contains a comma, quote, or line break;
/// borrows it unchanged otherwise.
fn quoted(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// Reads a relation from CSV text. The first record is the header
/// (attribute names); `roles[i]` assigns the privacy role of column
/// `i`.
///
/// One pass: each field is interned into its column's dictionary as
/// soon as it is read, so codes are assigned in first-seen order. An
/// unterminated quoted field is reported over any other error, then a
/// missing header, a role-count mismatch, and the first ragged record.
pub fn read_relation(text: &str, roles: &[AttrRole]) -> Result<Relation, CsvError> {
    let mut tok = Tokenizer::new(text);
    let mut names = Vec::new();
    if tok.next_record(|_, v| names.push(v.to_owned()))?.is_none() {
        return Err(CsvError::Empty);
    }
    if names.len() != roles.len() {
        let err = CsvError::RoleMismatch { header: names.len(), roles: roles.len() };
        return Err(tok.finish_with(err));
    }
    let attrs =
        names.into_iter().zip(roles).map(|(name, &role)| Attribute::new(name, role)).collect();
    let schema = Arc::new(Schema::new(attrs));
    let arity = schema.arity();
    let mut b = RelationBuilder::new(schema);
    loop {
        let line = tok.line;
        let record = tok.next_record(|col, v| {
            if col < arity {
                b.push_value(col, v);
            }
        })?;
        match record {
            None => return Ok(b.finish()),
            Some(found) if found != arity => {
                let err = CsvError::RaggedRow { line, expected: arity, found };
                return Err(tok.finish_with(err));
            }
            Some(_) => {}
        }
    }
}

/// Reads a relation from a CSV file; see [`read_relation`].
pub fn read_relation_file(path: &Path, roles: &[AttrRole]) -> Result<Relation, CsvError> {
    let text = std::fs::read_to_string(path).map_err(|e| CsvError::Io(e.to_string()))?;
    read_relation(&text, roles)
}

/// Serializes a relation to CSV text with a header row. Suppressed
/// cells are written as `★`.
///
/// Each column's dictionary values are quoted once; the rows are then
/// appended from those pre-quoted strings into a buffer sized up front.
pub fn write_relation(rel: &Relation) -> String {
    let schema = rel.schema();
    let arity = schema.arity();
    let dicts: Vec<Vec<Cow<'_, str>>> =
        rel.dicts().iter().map(|d| d.iter().map(|(_, v)| quoted(v)).collect()).collect();
    let cols: Vec<&[u32]> = (0..arity).map(|col| rel.column(col)).collect();
    let cell = |col: usize, code: u32| -> &str {
        dicts[col].get(code as usize).map_or("★", |v| v.as_ref())
    };
    let header: Vec<Cow<'_, str>> = schema.attributes().iter().map(|a| quoted(a.name())).collect();
    // Separators: `arity - 1` commas and one newline per line.
    let mut len = (rel.n_rows() + 1) * arity.max(1) + header.iter().map(|h| h.len()).sum::<usize>();
    for (col, codes) in cols.iter().enumerate() {
        len += codes.iter().map(|&code| cell(col, code).len()).sum::<usize>();
    }
    let mut out = String::with_capacity(len);
    out.push_str(&header.join(","));
    out.push('\n');
    for row in 0..rel.n_rows() {
        for (col, codes) in cols.iter().enumerate() {
            if col > 0 {
                out.push(',');
            }
            out.push_str(cell(col, codes[row]));
        }
        out.push('\n');
    }
    out
}

/// Writes a relation to a CSV file; see [`write_relation`].
pub fn write_relation_file(rel: &Relation, path: &Path) -> Result<(), CsvError> {
    std::fs::write(path, write_relation(rel)).map_err(|e| CsvError::Io(e.to_string()))
}

/// The reader and writer that predate the streaming tokenizer, kept as
/// differential oracles: the char-at-a-time parser (extended to record
/// the line each record starts on) and the per-cell quoting writer.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Parses `text` into `(start line, fields)` records.
    pub(super) fn parse_csv(text: &str) -> Result<Vec<(usize, Vec<String>)>, CsvError> {
        let mut records = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut chars = text.chars().peekable();
        let mut in_quotes = false;
        let mut line = 1usize;
        let mut record_line = 1usize;
        let mut saw_any = false;

        while let Some(c) = chars.next() {
            saw_any = true;
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        line += 1;
                        field.push(c);
                    }
                    _ => field.push(c),
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => {
                        record.push(std::mem::take(&mut field));
                    }
                    '\r' => {
                        // Consume \r\n as one newline; lone \r is literal.
                        if chars.peek() == Some(&'\n') {
                            chars.next();
                            line += 1;
                            record.push(std::mem::take(&mut field));
                            records.push((record_line, std::mem::take(&mut record)));
                            record_line = line;
                        } else {
                            field.push('\r');
                        }
                    }
                    '\n' => {
                        line += 1;
                        record.push(std::mem::take(&mut field));
                        records.push((record_line, std::mem::take(&mut record)));
                        record_line = line;
                    }
                    _ => field.push(c),
                }
            }
        }
        if in_quotes {
            return Err(CsvError::UnterminatedQuote { line });
        }
        if !field.is_empty() || !record.is_empty() {
            record.push(field);
            records.push((record_line, record));
        }
        if !saw_any {
            return Err(CsvError::Empty);
        }
        Ok(records)
    }

    /// Parse everything, then check the header and every record.
    pub(super) fn read_relation(text: &str, roles: &[AttrRole]) -> Result<Relation, CsvError> {
        let records = parse_csv(text)?;
        let mut it = records.into_iter();
        let (_, header) = it.next().ok_or(CsvError::Empty)?;
        if header.len() != roles.len() {
            return Err(CsvError::RoleMismatch { header: header.len(), roles: roles.len() });
        }
        let attrs = header
            .iter()
            .zip(roles)
            .map(|(name, &role)| Attribute::new(name.clone(), role))
            .collect();
        let schema = Arc::new(Schema::new(attrs));
        let mut b = RelationBuilder::new(Arc::clone(&schema));
        for (line, rec) in it {
            if rec.len() != schema.arity() {
                return Err(CsvError::RaggedRow {
                    line,
                    expected: schema.arity(),
                    found: rec.len(),
                });
            }
            b.push_row(&rec);
        }
        Ok(b.finish())
    }

    /// Quotes a field if it contains a comma, quote, or newline.
    pub(super) fn quote_field(s: &str, out: &mut String) {
        if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
            out.push('"');
            for c in s.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(s);
        }
    }

    /// Decodes and quotes every cell.
    pub(super) fn write_relation(rel: &Relation) -> String {
        let mut out = String::new();
        let schema = rel.schema();
        for (i, a) in schema.attributes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quote_field(a.name(), &mut out);
        }
        out.push('\n');
        for row in 0..rel.n_rows() {
            for col in 0..schema.arity() {
                if col > 0 {
                    out.push(',');
                }
                quote_field(rel.value(row, col).as_str(), &mut out);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::STAR_CODE;
    use proptest::prelude::*;

    /// A relation's full content: header names, every column's codes,
    /// and every dictionary's `(code, value)` list.
    type Content = (Vec<String>, Vec<Vec<u32>>, Vec<Vec<(u32, String)>>);

    fn content(rel: &Relation) -> Content {
        let names = rel.schema().attributes().iter().map(|a| a.name().to_owned()).collect();
        let cols = (0..rel.schema().arity()).map(|c| rel.column(c).to_vec()).collect();
        let dicts = rel
            .dicts()
            .iter()
            .map(|d| d.iter().map(|(code, v)| (code, v.to_owned())).collect())
            .collect();
        (names, cols, dicts)
    }

    fn read(text: &str, roles: &[AttrRole]) -> Result<Content, CsvError> {
        read_relation(text, roles).map(|r| content(&r))
    }

    fn read_oracle(text: &str, roles: &[AttrRole]) -> Result<Content, CsvError> {
        oracle::read_relation(text, roles).map(|r| content(&r))
    }

    fn qi(n: usize) -> Vec<AttrRole> {
        vec![AttrRole::Quasi; n]
    }

    /// Whether `read_relation` would reach `Schema::new` with duplicate
    /// attribute names (which panics, in both readers).
    fn duplicate_header(text: &str, roles: &[AttrRole]) -> bool {
        match oracle::parse_csv(text) {
            Ok(records) => records.first().is_some_and(|(_, h)| {
                h.len() == roles.len() && h.iter().enumerate().any(|(i, a)| h[..i].contains(a))
            }),
            Err(_) => false,
        }
    }

    /// Text over the characters that steer the tokenizer, weighted
    /// towards letters so that fields and records form.
    fn csv_text() -> impl Strategy<Value = String> {
        const ALPHABET: [&str; 12] =
            ["a", "b", "c", "a", "b", ",", ",", "\"", "\n", "\r", "★", "é"];
        proptest::collection::vec(0usize..ALPHABET.len(), 0..48)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// A well-formed table: distinct header names, then rows of fields
    /// that are plain, quoted, multi-line or `""`-escaped, with `\n` or
    /// `\r\n` line ends and an optional final newline.
    fn csv_table() -> impl Strategy<Value = (String, usize)> {
        const FIELDS: [&str; 12] = [
            "x",
            "y",
            "",
            "★",
            "é",
            "\"q,r\"",
            "\"l1\nl2\"",
            "\"he said \"\"hi\"\"\"",
            "\"★\"",
            "a\"b,c\"",
            "\"\"",
            "z\rw",
        ];
        (1usize..5, 0usize..7, any::<bool>(), any::<bool>()).prop_flat_map(
            |(arity, rows, crlf, trailing)| {
                proptest::collection::vec(0usize..FIELDS.len(), arity * rows).prop_map(
                    move |cells| {
                        let eol = if crlf { "\r\n" } else { "\n" };
                        let header: Vec<String> = (0..arity).map(|c| format!("C{c}")).collect();
                        let mut text = header.join(",");
                        for row in cells.chunks(arity) {
                            text.push_str(eol);
                            let fields: Vec<&str> = row.iter().map(|&i| FIELDS[i]).collect();
                            text.push_str(&fields.join(","));
                        }
                        if trailing {
                            text.push_str(eol);
                        }
                        (text, arity)
                    },
                )
            },
        )
    }

    /// A relation whose values carry every character `write_relation`
    /// must quote, plus suppressed cells.
    fn special_relation() -> impl Strategy<Value = Relation> {
        const VALUES: [&str; 10] =
            ["plain", "a,b", "q\"q", "l1\nl2", "cr\r", "", "★", "é,", "\"\"", " sp "];
        (1usize..4, 0usize..12).prop_flat_map(|(arity, rows)| {
            proptest::collection::vec(0usize..VALUES.len(), arity * rows).prop_map(move |cells| {
                let names = ["N", "a,\"b\"", "é\nf"];
                let attrs = (0..arity).map(|c| Attribute::new(names[c], AttrRole::Quasi)).collect();
                let mut b = RelationBuilder::new(Arc::new(Schema::new(attrs)));
                for row in cells.chunks(arity) {
                    let vals: Vec<&str> = row.iter().map(|&i| VALUES[i]).collect();
                    b.push_row(&vals);
                }
                b.finish()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On arbitrary text the streaming reader returns the oracle's
        /// relation or the oracle's error.
        #[test]
        fn read_matches_oracle_on_random_text(
            text in csv_text(),
            width in prop_oneof![Just(None), (0usize..4).prop_map(Some)],
        ) {
            let header = oracle::parse_csv(&text)
                .ok()
                .and_then(|r| r.first().map(|(_, h)| h.len()))
                .unwrap_or(1);
            let roles = qi(width.unwrap_or(header));
            prop_assume!(!duplicate_header(&text, &roles));
            prop_assert_eq!(read(&text, &roles), read_oracle(&text, &roles), "text {:?}", text);
            let records = oracle::parse_csv(&text)
                .map(|r| r.into_iter().map(|(_, fields)| fields).collect::<Vec<_>>());
            prop_assert_eq!(parse_csv(&text), records, "text {:?}", text);
        }

        /// On well-formed tables the streaming reader returns the
        /// oracle's relation.
        #[test]
        fn read_matches_oracle_on_tables((text, arity) in csv_table()) {
            let got = read(&text, &qi(arity));
            prop_assert!(got.is_ok(), "text {:?}: {:?}", text, got);
            prop_assert_eq!(got, read_oracle(&text, &qi(arity)), "text {:?}", text);
        }

        /// The pre-quoted writer is byte-identical to the per-cell one,
        /// and its output reads back to the same relation.
        #[test]
        fn write_matches_oracle(rel in special_relation()) {
            let out = write_relation(&rel);
            prop_assert_eq!(&out, &oracle::write_relation(&rel));
            let roles = qi(rel.schema().arity());
            prop_assert_eq!(read(&out, &roles), Ok(content(&rel)));
        }
    }

    #[test]
    fn parses_simple() {
        let r = parse_csv("a,b\n1,2\n").unwrap();
        assert_eq!(r, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn parses_quotes_commas_newlines() {
        let r = parse_csv("a,\"x,y\"\n\"he said \"\"hi\"\"\",\"l1\nl2\"\n").unwrap();
        assert_eq!(r[0], vec!["a", "x,y"]);
        assert_eq!(r[1], vec!["he said \"hi\"", "l1\nl2"]);
    }

    #[test]
    fn parses_crlf() {
        let r = parse_csv("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1], vec!["1", "2"]);
    }

    #[test]
    fn lone_cr_is_literal_and_crlf_is_one_newline() {
        let r = parse_csv("a\rb,c\r\nd\r").unwrap();
        assert_eq!(r, vec![vec!["a\rb", "c"], vec!["d\r"]]);
        let err = read_relation("A\r\n1,2\r\n", &qi(1)).unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 2, expected: 1, found: 2 });
    }

    #[test]
    fn mid_field_quote_opens_a_quoted_section() {
        assert_eq!(parse_csv("a\"b,c\"\n").unwrap(), vec![vec!["ab,c"]]);
        assert_eq!(parse_csv("x\"\"y,z\n").unwrap(), vec![vec!["xy", "z"]]);
        assert_eq!(parse_csv("\"a\"\"b\"\n").unwrap(), vec![vec!["a\"b"]]);
    }

    #[test]
    fn no_trailing_newline_ok() {
        let r = parse_csv("a,b\n1,2").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn final_line_without_newline_is_kept_unless_empty() {
        assert_eq!(parse_csv("a,b\n1,").unwrap(), vec![vec!["a", "b"], vec!["1", ""]]);
        assert_eq!(parse_csv("a\n\"\"").unwrap(), vec![vec!["a"]]);
        assert_eq!(parse_csv("a\n\"x\"").unwrap(), vec![vec!["a"], vec!["x"]]);
        // A blank line mid-input is a one-field record.
        assert_eq!(parse_csv("a\n\nb").unwrap(), vec![vec!["a"], vec![""], vec!["b"]]);
        assert_eq!(read_relation("A\n\"\"", &qi(1)).unwrap().n_rows(), 0);
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(parse_csv(""), Err(CsvError::Empty));
        assert_eq!(read_relation("", &qi(1)).unwrap_err(), CsvError::Empty);
        // A lone empty quoted field is no header either.
        assert_eq!(parse_csv("\"\""), Ok(Vec::new()));
        assert_eq!(read_relation("\"\"", &qi(1)).unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(matches!(parse_csv("a,\"oops\n"), Err(CsvError::UnterminatedQuote { .. })));
    }

    #[test]
    fn unterminated_quote_outranks_later_structural_errors() {
        // The ragged record on line 2 is found first, yet the quote
        // opened on line 3 and never closed is what gets reported.
        let err = read_relation("a,b\n1\n\"x", &qi(2)).unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 3 });
        let err = read_relation("a,b\n1,2\n\"x\ny", &qi(3)).unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 4 });
        // Closed quotes after the error leave it standing.
        let err = read_relation("a,b\n1\n\"x\"\"\",2\n", &qi(2)).unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 2, expected: 2, found: 1 });
    }

    #[test]
    fn star_is_suppressed_and_not_interned() {
        let rel = read_relation("A,B\n★,x\ny,★\n", &qi(2)).unwrap();
        assert!(rel.is_suppressed(0, 0) && rel.is_suppressed(1, 1));
        assert_eq!(rel.code(0, 0), STAR_CODE);
        assert_eq!(rel.dict(0).iter().collect::<Vec<_>>(), vec![(0, "y")]);
        assert_eq!(rel.dict(1).iter().collect::<Vec<_>>(), vec![(0, "x")]);
        assert_eq!(write_relation(&rel), "A,B\n★,x\ny,★\n");
    }

    #[test]
    fn multibyte_values_next_to_delimiters() {
        let rel = read_relation("é,★x\nü,\"ß,\"\r\n日本,é\n", &qi(2)).unwrap();
        assert_eq!(rel.value(0, 0).as_str(), "ü");
        assert_eq!(rel.value(0, 1).as_str(), "ß,");
        assert_eq!(rel.value(1, 0).as_str(), "日本");
        assert_eq!(rel.value(1, 1).as_str(), "é");
        assert_eq!(rel.schema().attributes()[1].name(), "★x");
    }

    #[test]
    fn codes_are_first_seen() {
        let rel = read_relation("A\nz\ny\nz\nx\n", &qi(1)).unwrap();
        assert_eq!(rel.column(0), &[0, 1, 0, 2]);
        assert_eq!(rel.dict(0).iter().collect::<Vec<_>>(), vec![(0, "z"), (1, "y"), (2, "x")]);
    }

    #[test]
    fn relation_round_trip() {
        let text = "GEN,ETH,DIAG\nFemale,Asian,Flu\nMale,★,Cold\n";
        let roles = [AttrRole::Quasi, AttrRole::Quasi, AttrRole::Sensitive];
        let rel = read_relation(text, &roles).unwrap();
        assert_eq!(rel.n_rows(), 2);
        assert!(rel.is_suppressed(1, 1));
        let out = write_relation(&rel);
        let rel2 = read_relation(&out, &roles).unwrap();
        assert_eq!(rel2.n_rows(), 2);
        assert_eq!(write_relation(&rel2), out);
    }

    #[test]
    fn ragged_row_errors() {
        let text = "A,B\n1\n";
        let err = read_relation(text, &[AttrRole::Quasi, AttrRole::Quasi]).unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 2, expected: 2, found: 1 });
    }

    #[test]
    fn ragged_row_reports_the_physical_line_it_starts_on() {
        // The second record spans lines 2-3, so the ragged one starts
        // on line 4 (its record index would say 3).
        let err = read_relation("A,B\n\"x\ny\",1\n2\n", &qi(2)).unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 4, expected: 2, found: 1 });
        let err = read_relation("A,B\r\n1,2\r\n\r\n", &qi(2)).unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 3, expected: 2, found: 1 });
    }

    #[test]
    fn role_mismatch_errors() {
        let text = "A,B\n1,2\n";
        let err = read_relation(text, &[AttrRole::Quasi]).unwrap_err();
        assert_eq!(err, CsvError::RoleMismatch { header: 2, roles: 1 });
        let err = read_relation("A,B\n\"", &[AttrRole::Quasi]).unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 2 });
    }

    #[test]
    fn quoting_round_trips_special_chars() {
        let fields = ["plain", "a,b", "q\"q", "l\nf", "c\rr", "", "é"];
        let got: Vec<Cow<'_, str>> = fields.iter().map(|f| quoted(f)).collect();
        assert_eq!(got.join("|"), "plain|\"a,b\"|\"q\"\"q\"|\"l\nf\"|\"c\rr\"||é");
        assert!(matches!(quoted("plain"), Cow::Borrowed(_)));
        for f in fields {
            let mut old = String::new();
            oracle::quote_field(f, &mut old);
            assert_eq!(quoted(f), old);
        }
    }

    #[test]
    fn writes_the_header_of_an_empty_relation() {
        let rel = read_relation("A,\"b,c\"\n", &qi(2)).unwrap();
        assert_eq!(write_relation(&rel), "A,\"b,c\"\n");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("diva_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let roles = [AttrRole::Quasi, AttrRole::Sensitive];
        let rel = read_relation("A,S\nx,s\ny,t\n", &roles).unwrap();
        write_relation_file(&rel, &path).unwrap();
        let back = read_relation_file(&path, &roles).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.value(1, 0).as_str(), "y");
    }
}
