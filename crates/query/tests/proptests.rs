//! Never-panic properties for the SPARQL parser: query text is client
//! input (the server parses it per request), so any string must yield a
//! query or a `ParseError`, never a panic.

use alex_query::parse;
use proptest::prelude::*;

/// Everything the parser matches case-insensitively at a byte offset.
const KEYWORDS: &[&str] = &[
    "PREFIX",
    "SELECT",
    "DISTINCT",
    "WHERE",
    "FILTER",
    "OPTIONAL",
    "UNION",
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    "CONTAINS",
    "STRSTARTS",
    "true",
    "false",
    "a",
];

/// Syntax fragments, several carrying multi-byte characters where names,
/// IRIs, literals, tags and comments may appear.
const TOKENS: &[&str] = &[
    "?x",
    "?é",
    "*",
    "{",
    "}",
    ".",
    "(",
    ")",
    ",",
    "<http://e/é>",
    "<é",
    "ex:é",
    "é:x",
    "ex:",
    "\"é\"",
    "\"x\"@é",
    "\"x\"@en",
    "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>",
    "^^",
    "42",
    "-7",
    "1.5",
    ".é",
    "=",
    "!=",
    "<=",
    ">",
    "!",
    "&&",
    "||",
    "#é\n",
];

/// Two-, three- and four-byte UTF-8 characters, plus a combining mark.
const WIDE: &[char] = &['é', 'ß', 'λ', '中', '€', '🦀', '\u{301}'];

fn arb_wide() -> impl Strategy<Value = char> {
    (0..WIDE.len()).prop_map(|i| WIDE[i])
}

/// One fragment: a keyword (whole, or cut at any char and followed by a
/// multi-byte character), a syntax token, or a lone multi-byte character.
fn arb_fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..KEYWORDS.len()).prop_map(|i| KEYWORDS[i].to_owned()),
        (0..KEYWORDS.len(), 0usize..10, arb_wide()).prop_map(|(i, cut, c)| {
            let kw = KEYWORDS[i];
            format!("{}{c}", &kw[..cut.min(kw.len())])
        }),
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_owned()),
        arb_wide().prop_map(String::from),
    ]
}

fn arb_query_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((arb_fragment(), 0usize..3), 0..24).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(frag, sep)| frag + ["", " ", "\n"][sep])
            .collect()
    })
}

const VALID: &[&str] = &[
    "SELECT ?x WHERE { ?x ?p ?o }",
    "PREFIX ex: <http://ex/> SELECT DISTINCT ?n WHERE { ?p ex:name ?n . \
     FILTER(CONTAINS(?n, \"a\") && ?n != \"b\") } ORDER BY DESC(?n) LIMIT 3 OFFSET 1",
    "SELECT * WHERE { ?p a <http://ex/C> . OPTIONAL { ?p <http://ex/age> ?a } \
     { ?p <http://ex/x> true } UNION { ?p <http://ex/y> -1.5 } }",
];

#[test]
fn trailing_multibyte_text_is_an_error_not_a_panic() {
    let err = parse("SELECT ?x WHERE { ?x ?p ?o } ééé").unwrap_err();
    assert_eq!(err.position, "SELECT ?x WHERE { ?x ?p ?o } ".len());
    for text in [
        "SELECé",
        "PREFIX é: <http://e/> SELECT",
        "SELECT ?x WHERE { ?x é:y ?o }",
    ] {
        assert!(parse(text).is_err(), "{text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Keyword fragments mixed with multi-byte characters never panic, and
    /// every error points at a character boundary of the input.
    #[test]
    fn parse_never_panics_on_mixed_fragments(text in arb_query_text()) {
        if let Err(e) = parse(&text) {
            prop_assert!(e.position <= text.len() && text.is_char_boundary(e.position));
        }
    }

    /// A multi-byte character inserted at any character boundary of a
    /// valid query never makes the parser panic.
    #[test]
    fn parse_never_panics_on_wide_insertions(q in 0..VALID.len(), at in 0usize..256, c in arb_wide()) {
        let base = VALID[q];
        let at = base.char_indices().map(|(i, _)| i).nth(at % base.len()).unwrap_or(base.len());
        let text = format!("{}{c}{}", &base[..at], &base[at..]);
        let _ = parse(&text);
    }
}
