//! Lexer for the schema and query DSLs, and the token cursor every parser
//! in this crate walks.
//!
//! Tokens are `Copy` and borrow their identifier text from the input. The
//! cursor lexes them on demand, one token ahead at most, so parsing a query
//! allocates nothing for its tokens.

use crate::error::ParseError;

/// A lexical token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tok<'a> {
    /// Identifier or keyword, a slice of the input.
    Ident(&'a str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `|`
    Pipe,
    /// `&`
    Amp,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    Neq,
    /// `<=`
    Le,
    /// End of input.
    Eof,
    /// Where lexing failed. The cursor reports the lexical error in place
    /// of whatever the parser makes of this token.
    Invalid,
}

impl Tok<'_> {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::Pipe => "`|`".into(),
            Tok::Amp => "`&`".into(),
            Tok::Colon => "`:`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Dot => "`.`".into(),
            Tok::Semi => "`;`".into(),
            Tok::Eq => "`=`".into(),
            Tok::EqEq => "`==`".into(),
            Tok::Neq => "`!=`".into(),
            Tok::Le => "`<=`".into(),
            Tok::Eof => "end of input".into(),
            Tok::Invalid => "invalid input".into(),
        }
    }
}

/// A token plus its source position: the byte offset of its first byte,
/// and its 1-based line and column (columns count chars, not bytes).
#[derive(Clone, Copy, Debug)]
pub struct Spanned<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Byte offset into the lexed input.
    pub offset: usize,
    /// Line number, 1-based.
    pub line: usize,
    /// Column number, 1-based.
    pub col: usize,
}

impl Spanned<'_> {
    /// An error positioned at this token.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.col, message)
    }
}

/// A streaming tokenizer. `//` starts a line comment. Identifiers start
/// with an alphabetic char or `_` and continue with alphanumerics or `_`;
/// whitespace is anything `char::is_whitespace` accepts.
struct Lexer<'a> {
    input: &'a str,
    i: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer over `input`, which starts at `(line, col)` of a larger
    /// text, so its positions are that text's.
    fn at(input: &'a str, (line, col): (usize, usize)) -> Lexer<'a> {
        Lexer {
            input,
            i: 0,
            line,
            col,
        }
    }

    /// The next token; `Eof` once the input is used up.
    fn token(&mut self) -> Result<Spanned<'a>, ParseError> {
        let (input, bytes) = (self.input, self.input.as_bytes());
        loop {
            let (start, line, col) = (self.i, self.line, self.col);
            let at = |tok| Spanned {
                tok,
                offset: start,
                line,
                col,
            };
            let Some(&b) = bytes.get(start) else {
                return Ok(at(Tok::Eof));
            };
            let (tok, len) = match b {
                b'\n' => {
                    self.i += 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                b'\t' | 0x0b | 0x0c | b'\r' | b' ' => {
                    self.i += 1;
                    self.col += 1;
                    continue;
                }
                b'/' => {
                    if bytes.get(start + 1) != Some(&b'/') {
                        return Err(ParseError::new(line, col, "unexpected `/`"));
                    }
                    // Up to the newline, which the next round consumes.
                    let end = input[start..].find('\n').map_or(input.len(), |n| start + n);
                    self.col += input[start..end].chars().count();
                    self.i = end;
                    continue;
                }
                b'!' | b'<' if bytes.get(start + 1) != Some(&b'=') => {
                    let want = if b == b'!' { "!=" } else { "<=" };
                    return Err(ParseError::new(line, col, format!("expected `{want}`")));
                }
                b'!' => (Tok::Neq, 2),
                b'<' => (Tok::Le, 2),
                b'=' if bytes.get(start + 1) == Some(&b'=') => (Tok::EqEq, 2),
                b'=' => (Tok::Eq, 1),
                b'{' => (Tok::LBrace, 1),
                b'}' => (Tok::RBrace, 1),
                b'|' => (Tok::Pipe, 1),
                b'&' => (Tok::Amp, 1),
                b':' => (Tok::Colon, 1),
                b',' => (Tok::Comma, 1),
                b'.' => (Tok::Dot, 1),
                b';' => (Tok::Semi, 1),
                b if b.is_ascii_alphabetic() || b == b'_' => return Ok(at(self.ident(start + 1))),
                b if b.is_ascii() => {
                    let c = char::from(b);
                    return Err(ParseError::new(
                        line,
                        col,
                        format!("unexpected character `{c}`"),
                    ));
                }
                _ => {
                    let c = input[start..].chars().next().expect("a char starts here");
                    if c.is_alphabetic() {
                        return Ok(at(self.ident(start + c.len_utf8())));
                    }
                    if !c.is_whitespace() {
                        return Err(ParseError::new(
                            line,
                            col,
                            format!("unexpected character `{c}`"),
                        ));
                    }
                    self.i += c.len_utf8();
                    self.col += 1;
                    continue;
                }
            };
            // Punctuation is ASCII: its bytes are its columns.
            self.i += len;
            self.col += len;
            return Ok(at(tok));
        }
    }

    /// The token that stands where lexing failed.
    fn invalid(&self) -> Spanned<'a> {
        Spanned {
            tok: Tok::Invalid,
            offset: self.i,
            line: self.line,
            col: self.col,
        }
    }

    /// Finish the identifier whose first char ends at `i`.
    fn ident(&mut self, mut i: usize) -> Tok<'a> {
        let (input, bytes) = (self.input, self.input.as_bytes());
        let start = self.i;
        let mut chars = 1;
        while let Some(&b) = bytes.get(i) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                i += 1;
            } else if b.is_ascii() {
                break;
            } else {
                let c = input[i..].chars().next().expect("a char starts here");
                if !c.is_alphanumeric() {
                    break;
                }
                i += c.len_utf8();
            }
            chars += 1;
        }
        self.i = i;
        self.col += chars;
        Tok::Ident(&input[start..i])
    }
}

/// A position in a token stream, lexed on demand. It hands tokens out by
/// value and never moves past `Eof`.
pub struct Cursor<'a> {
    lexer: Lexer<'a>,
    /// Where the input starts, as `(line, col)`.
    start: (usize, usize),
    cur: Spanned<'a>,
    ahead: Option<Spanned<'a>>,
    lex_error: Option<ParseError>,
}

impl<'a> Cursor<'a> {
    /// Run `parse` over `input`. A lexical error anywhere in the input wins
    /// over what the parser reports, exactly as if the whole input had been
    /// lexed before parsing began.
    pub fn parse<T>(
        input: &'a str,
        parse: impl FnOnce(&mut Cursor<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        Cursor::parse_at(input, (1, 1), parse)
    }

    /// [`Cursor::parse`] over a slice of a larger text that starts at
    /// `(line, col)` of it: token positions, and so error positions, are
    /// the larger text's. Byte offsets stay relative to `input`.
    pub fn parse_at<T>(
        input: &'a str,
        start: (usize, usize),
        parse: impl FnOnce(&mut Cursor<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let lexer = Lexer::at(input, start);
        let mut cursor = Cursor {
            cur: lexer.invalid(),
            lexer,
            start,
            ahead: None,
            lex_error: None,
        };
        cursor.cur = cursor.lex();
        parse(&mut cursor).map_err(|e| cursor.first_lex_error().unwrap_or(e))
    }

    /// Where the input starts, as `(line, col)`: `(1, 1)` unless it is a
    /// slice given to [`Cursor::parse_at`].
    pub fn start(&self) -> (usize, usize) {
        self.start
    }

    /// The next token from the lexer; `Invalid` from the first lexical
    /// error on, with the error kept for [`Cursor::parse`] to report.
    fn lex(&mut self) -> Spanned<'a> {
        if self.lex_error.is_none() {
            match self.lexer.token() {
                Ok(t) => return t,
                Err(e) => self.lex_error = Some(e),
            }
        }
        self.lexer.invalid()
    }

    /// The first lexical error of the whole input, lexing what the parser
    /// did not reach.
    fn first_lex_error(&mut self) -> Option<ParseError> {
        while self.lex_error.is_none() && self.cur.tok != Tok::Eof {
            self.cur = self.lex();
        }
        self.lex_error.take()
    }

    /// The current token.
    pub fn peek(&self) -> Spanned<'a> {
        self.cur
    }

    /// The token after the current one (`Eof` at the end).
    pub fn peek2(&mut self) -> Tok<'a> {
        if self.cur.tok == Tok::Eof {
            return Tok::Eof;
        }
        let ahead = match self.ahead {
            Some(t) => t,
            None => {
                let t = self.lex();
                self.ahead = Some(t);
                t
            }
        };
        ahead.tok
    }

    /// The current token, moving past it.
    pub fn next(&mut self) -> Spanned<'a> {
        let t = self.cur;
        if t.tok != Tok::Eof {
            self.cur = match self.ahead.take() {
                Some(a) => a,
                None => self.lex(),
            };
        }
        t
    }

    /// Consume `want` or fail with "expected …, found …".
    pub fn expect(&mut self, want: Tok<'_>) -> Result<Spanned<'a>, ParseError> {
        let t = self.next();
        if t.tok == want {
            Ok(t)
        } else {
            Err(t.error(format!(
                "expected {}, found {}",
                want.describe(),
                t.tok.describe()
            )))
        }
    }

    /// Consume an identifier, returning its text and its token.
    pub fn ident(&mut self) -> Result<(&'a str, Spanned<'a>), ParseError> {
        let t = self.next();
        match t.tok {
            Tok::Ident(s) => Ok((s, t)),
            other => Err(t.error(format!(
                "expected an identifier, found {}",
                other.describe()
            ))),
        }
    }

    /// Consume `want` if it is the current token.
    pub fn eat(&mut self, want: Tok<'_>) -> bool {
        let hit = self.peek().tok == want;
        if hit {
            self.next();
        }
        hit
    }

    /// Consume the keyword `kw` if it is the current token.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        self.eat(Tok::Ident(kw))
    }

    /// With the cursor on `{`, move past its matching `}` and return both
    /// braces, or `None` when the block is unterminated.
    pub fn balanced(&mut self) -> Option<(Spanned<'a>, Spanned<'a>)> {
        let open = self.peek();
        debug_assert_eq!(open.tok, Tok::LBrace);
        let mut depth = 0usize;
        loop {
            let t = self.next();
            match t.tok {
                Tok::LBrace => depth += 1,
                Tok::RBrace => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open, t));
                    }
                }
                Tok::Eof | Tok::Invalid => return None,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(input: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
        let mut lexer = Lexer::at(input, (1, 1));
        let mut out = Vec::new();
        loop {
            let t = lexer.token()?;
            out.push(t);
            if t.tok == Tok::Eof {
                return Ok(out);
            }
        }
    }

    fn toks(s: &str) -> Vec<Tok<'_>> {
        lex(s).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_query_syntax() {
        assert_eq!(
            toks("{ x | x in C & y != x.A }"),
            vec![
                Tok::LBrace,
                Tok::Ident("x"),
                Tok::Pipe,
                Tok::Ident("x"),
                Tok::Ident("in"),
                Tok::Ident("C"),
                Tok::Amp,
                Tok::Ident("y"),
                Tok::Neq,
                Tok::Ident("x"),
                Tok::Dot,
                Tok::Ident("A"),
                Tok::RBrace,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn tracks_positions_across_lines() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!((ts[0].line, ts[0].col, ts[0].offset), (1, 1, 0));
        assert_eq!((ts[1].line, ts[1].col, ts[1].offset), (2, 3, 4));
        assert_eq!((ts[2].line, ts[2].col, ts[2].offset), (2, 4, 5));
    }

    #[test]
    fn columns_count_chars_and_offsets_count_bytes() {
        let ts = lex("ñandú = b").unwrap();
        assert_eq!(ts[0].tok, Tok::Ident("ñandú"));
        assert_eq!((ts[1].col, ts[1].offset), (7, 8));
        assert_eq!((ts[2].col, ts[2].offset), (9, 10));
    }

    #[test]
    fn line_comments_are_skipped() {
        assert_eq!(
            toks("a // comment\nb"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
        // A comment at the end of input still advances the column.
        let ts = lex("a // é").unwrap();
        assert_eq!((ts[1].line, ts[1].col), (1, 7));
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(lex("a $ b").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("a / b").is_err());
        assert!(lex("a < b").is_err());
        assert!(lex("a ∀ b").is_err());
    }

    #[test]
    fn cursor_finds_the_matching_brace() {
        Cursor::parse("{ a { b } } c", |cur| {
            let (open, close) = cur.balanced().unwrap();
            assert_eq!((open.offset, close.offset), (0, 10));
            assert_eq!(cur.next().tok, Tok::Ident("c"));
            assert_eq!(cur.next().tok, Tok::Eof);
            assert_eq!(cur.next().tok, Tok::Eof);
            Ok(())
        })
        .unwrap();
        let unterminated = Cursor::parse("{ a { b }", |cur| Ok(cur.balanced())).unwrap();
        assert!(unterminated.is_none());
    }

    #[test]
    fn a_lexical_error_anywhere_wins_over_the_parse_error() {
        // The parser stops at `}`; a full lex would have failed at `$` first.
        let err = Cursor::parse("} a $ b", |cur| cur.expect(Tok::LBrace)).unwrap_err();
        assert_eq!(err.to_string(), "1:5: unexpected character `$`");
        // Without a lexical error the parse error stands.
        let err = Cursor::parse("} a b", |cur| cur.expect(Tok::LBrace)).unwrap_err();
        assert_eq!(err.to_string(), "1:1: expected `{`, found `}`");
        // Lookahead into a lexical error: the parser sees `Invalid`, never
        // `Eof`, so it cannot succeed.
        let err = Cursor::parse("a $", |cur| {
            assert_eq!(cur.peek2(), Tok::Invalid);
            cur.next();
            cur.expect(Tok::Eof)
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "1:3: unexpected character `$`");
    }
}
