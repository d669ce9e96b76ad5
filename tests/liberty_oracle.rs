//! An oracle for cell semantics that shares no code with the
//! evaluators it checks.
//!
//! `CellKind::eval`, `eval_word` and `eval_tristate` (and through them
//! the simulators' truth tables, bit-planes and arrival formulas) are
//! all written from the same understanding of each kind, so a wrong
//! function would pass every differential test between them.  Here each
//! combinational kind is instead written down as a liberty-style
//! `function:` string, the way a cell library states it (e.g.
//! `"!((A&B)|C)"` for an AOI21), parsed by a small expression parser,
//! and compared with all three evaluators on every known input.  The
//! C-elements have no liberty function; they are checked against a
//! literal next-state table.

use tm_async::netlist::CellKind;

/// The liberty function of every combinational kind: pins `A`..`E` are
/// inputs 0..4; `!` is NOT, `&` AND, `^` XOR and `|` OR, binding in
/// that order (every function brackets where the order matters).
const FUNCTIONS: [(CellKind, &str); 24] = [
    (CellKind::Buf, "A"),
    (CellKind::Inv, "!A"),
    (CellKind::And2, "(A&B)"),
    (CellKind::And3, "(A&B&C)"),
    (CellKind::And4, "(A&B&C&D)"),
    (CellKind::Or2, "(A|B)"),
    (CellKind::Or3, "(A|B|C)"),
    (CellKind::Or4, "(A|B|C|D)"),
    (CellKind::Nand2, "!(A&B)"),
    (CellKind::Nand3, "!(A&B&C)"),
    (CellKind::Nand4, "!(A&B&C&D)"),
    (CellKind::Nor2, "!(A|B)"),
    (CellKind::Nor3, "!(A|B|C)"),
    (CellKind::Nor4, "!(A|B|C|D)"),
    (CellKind::Xor2, "(A^B)"),
    (CellKind::Xnor2, "!(A^B)"),
    (CellKind::Aoi21, "!((A&B)|C)"),
    (CellKind::Aoi22, "!((A&B)|(C&D))"),
    (CellKind::Aoi32, "!((A&B&C)|(D&E))"),
    (CellKind::Oai21, "!((A|B)&C)"),
    (CellKind::Oai22, "!((A|B)&(C|D))"),
    (CellKind::Maj3, "((A&B)|(B&C)|(A&C))"),
    (CellKind::Tie0, "0"),
    (CellKind::Tie1, "1"),
];

/// Muller C-element next states, `(inputs, previous output, next
/// output)`: the output follows the inputs when they all agree and
/// holds otherwise.
const C2_TABLE: [([bool; 2], bool, bool); 8] = [
    ([false, false], false, false),
    ([false, false], true, false),
    ([false, true], false, false),
    ([false, true], true, true),
    ([true, false], false, false),
    ([true, false], true, true),
    ([true, true], false, true),
    ([true, true], true, true),
];

const C3_TABLE: [([bool; 3], bool, bool); 16] = [
    ([false, false, false], false, false),
    ([false, false, false], true, false),
    ([false, false, true], false, false),
    ([false, false, true], true, true),
    ([false, true, false], false, false),
    ([false, true, false], true, true),
    ([false, true, true], false, false),
    ([false, true, true], true, true),
    ([true, false, false], false, false),
    ([true, false, false], true, true),
    ([true, false, true], false, false),
    ([true, false, true], true, true),
    ([true, true, false], false, false),
    ([true, true, false], true, true),
    ([true, true, true], false, true),
    ([true, true, true], true, true),
];

/// A parsed liberty expression.
#[derive(Debug)]
enum Expr {
    Const(bool),
    Pin(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, pins: &[bool]) -> bool {
        match self {
            Expr::Const(value) => *value,
            Expr::Pin(pin) => pins[*pin],
            Expr::Not(e) => !e.eval(pins),
            Expr::And(a, b) => a.eval(pins) && b.eval(pins),
            Expr::Xor(a, b) => a.eval(pins) != b.eval(pins),
            Expr::Or(a, b) => a.eval(pins) || b.eval(pins),
        }
    }

    /// The highest pin index used, plus one.
    fn arity(&self) -> usize {
        match self {
            Expr::Const(_) => 0,
            Expr::Pin(pin) => pin + 1,
            Expr::Not(e) => e.arity(),
            Expr::And(a, b) | Expr::Xor(a, b) | Expr::Or(a, b) => a.arity().max(b.arity()),
        }
    }
}

/// Recursive-descent parser over the function string's bytes.
struct Parser<'s> {
    text: &'s [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Expr {
        let mut parser = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let expr = parser.or();
        assert_eq!(parser.at, parser.text.len(), "trailing input in {text:?}");
        expr
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.at += usize::from(found);
        found
    }

    fn or(&mut self) -> Expr {
        let mut expr = self.xor();
        while self.eat(b'|') {
            expr = Expr::Or(Box::new(expr), Box::new(self.xor()));
        }
        expr
    }

    fn xor(&mut self) -> Expr {
        let mut expr = self.and();
        while self.eat(b'^') {
            expr = Expr::Xor(Box::new(expr), Box::new(self.and()));
        }
        expr
    }

    fn and(&mut self) -> Expr {
        let mut expr = self.unary();
        while self.eat(b'&') {
            expr = Expr::And(Box::new(expr), Box::new(self.unary()));
        }
        expr
    }

    fn unary(&mut self) -> Expr {
        if self.eat(b'!') {
            return Expr::Not(Box::new(self.unary()));
        }
        if self.eat(b'(') {
            let expr = self.or();
            assert!(self.eat(b')'), "unclosed parenthesis");
            return expr;
        }
        let byte = self.peek().expect("an operand");
        self.at += 1;
        match byte {
            b'0' => Expr::Const(false),
            b'1' => Expr::Const(true),
            b'A'..=b'E' => Expr::Pin(usize::from(byte - b'A')),
            other => panic!("unexpected {:?}", char::from(other)),
        }
    }
}

fn pattern_bits(pattern: usize, arity: usize) -> Vec<bool> {
    (0..arity).map(|pin| pattern >> pin & 1 == 1).collect()
}

#[test]
fn the_parser_reads_liberty_functions() {
    let mux = Parser::parse("((S&B)|(A&!S))".replace('S', "C").as_str());
    for pattern in 0..8 {
        let pins = pattern_bits(pattern, 3);
        assert_eq!(mux.eval(&pins), if pins[2] { pins[1] } else { pins[0] });
    }
    assert!(
        Parser::parse("A|B&C").eval(&[true, false, false]),
        "& binds tighter"
    );
    assert!(
        !Parser::parse("!A&B").eval(&[false, false]),
        "! binds tightest"
    );
}

#[test]
fn every_combinational_kind_has_a_function_of_its_arity() {
    let covered: Vec<CellKind> = FUNCTIONS.iter().map(|&(kind, _)| kind).collect();
    for kind in CellKind::ALL {
        let stateful = kind.is_sequential();
        assert_eq!(covered.contains(&kind), !stateful, "{kind:?}");
    }
    for (kind, function) in FUNCTIONS {
        assert_eq!(
            Parser::parse(function).arity(),
            kind.input_count(),
            "{kind:?}"
        );
    }
}

#[test]
fn evaluators_match_the_liberty_functions_on_every_input() {
    for (kind, function) in FUNCTIONS {
        let expr = Parser::parse(function);
        let arity = kind.input_count();
        // One lane per input pattern for the word evaluator.
        let mut words = vec![0u64; arity];
        let mut expected_word = 0u64;
        for pattern in 0..1usize << arity {
            let pins = pattern_bits(pattern, arity);
            let expected = expr.eval(&pins);
            assert_eq!(kind.eval(&pins, None), expected, "{kind:?} eval {pins:?}");
            let known: Vec<Option<bool>> = pins.iter().map(|&b| Some(b)).collect();
            for prev in [None, Some(false), Some(true)] {
                assert_eq!(
                    kind.eval_tristate(&known, prev),
                    Some(expected),
                    "{kind:?} eval_tristate {pins:?}, prev {prev:?}"
                );
            }
            for (word, &bit) in words.iter_mut().zip(&pins) {
                *word |= u64::from(bit) << pattern;
            }
            expected_word |= u64::from(expected) << pattern;
        }
        let lanes = (1u64 << (1usize << arity)).wrapping_sub(1);
        for prev in [0, u64::MAX] {
            assert_eq!(
                kind.eval_word(&words, prev) & lanes,
                expected_word,
                "{kind:?} eval_word"
            );
        }
    }
}

#[test]
fn c_elements_match_the_hold_table() {
    fn check(kind: CellKind, rows: &[(&[bool], bool, bool)]) {
        let arity = kind.input_count();
        let mut words = vec![0u64; arity];
        let (mut prev_word, mut expected_word) = (0u64, 0u64);
        for (lane, &(inputs, prev, next)) in rows.iter().enumerate() {
            assert_eq!(
                kind.eval(inputs, Some(prev)),
                next,
                "{kind:?} {inputs:?} {prev}"
            );
            let known: Vec<Option<bool>> = inputs.iter().map(|&b| Some(b)).collect();
            assert_eq!(
                kind.eval_tristate(&known, Some(prev)),
                Some(next),
                "{kind:?} {inputs:?} {prev}"
            );
            for (word, &bit) in words.iter_mut().zip(inputs) {
                *word |= u64::from(bit) << lane;
            }
            prev_word |= u64::from(prev) << lane;
            expected_word |= u64::from(next) << lane;
        }
        let lanes = (1u64 << rows.len()) - 1;
        assert_eq!(
            kind.eval_word(&words, prev_word) & lanes,
            expected_word,
            "{kind:?}"
        );
    }
    let c2: Vec<(&[bool], bool, bool)> =
        C2_TABLE.iter().map(|(i, p, n)| (&i[..], *p, *n)).collect();
    let c3: Vec<(&[bool], bool, bool)> =
        C3_TABLE.iter().map(|(i, p, n)| (&i[..], *p, *n)).collect();
    check(CellKind::CElement2, &c2);
    check(CellKind::CElement3, &c3);
}
