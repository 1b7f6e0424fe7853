//! Token-based string similarity, the engine's stand-in for the paper's
//! TF/IDF `approxMatch` (§2.1: "'similar' according to some similarity
//! function (e.g., TF/IDF)").

use std::collections::BTreeSet;

/// Calls `f` on each lower-cased word/number token of `text`, in order and
/// with repeats, dropping punctuation.
pub fn each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            cur.push(c.to_ascii_lowercase());
        } else if !cur.is_empty() {
            f(&cur);
            cur.clear();
        }
    }
    if !cur.is_empty() {
        f(&cur);
    }
}

/// Lower-cases and splits into word/number tokens, dropping punctuation.
pub fn norm_tokens(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    each_token(text, |t| {
        out.insert(t.to_string());
    });
    out
}

/// Jaccard similarity of normalized token sets.
pub fn jaccard(a: &str, b: &str) -> f64 {
    let ta = norm_tokens(a);
    let tb = norm_tokens(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    inter / union
}

/// Containment: |A ∩ B| / min(|A|, |B|). Robust to one string being a
/// fragment of the other ("Basktall HS" vs "Basktall").
pub fn containment(a: &str, b: &str) -> f64 {
    let ta = norm_tokens(a);
    let tb = norm_tokens(b);
    let smaller = ta.len().min(tb.len());
    if smaller == 0 {
        return 0.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    inter / smaller as f64
}

/// The default `similar` / `approxMatch` predicate: containment ≥ 0.8.
/// Texts without a token (empty or punctuation-only) match nothing.
pub fn approx_match(a: &str, b: &str) -> bool {
    containment(a, b) >= 0.8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_normalize_case_and_punct() {
        let t = norm_tokens("Basktall, HS!");
        assert!(t.contains("basktall"));
        assert!(t.contains("hs"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard("a b", "a b"), 1.0);
        assert_eq!(jaccard("a", "b"), 0.0);
        assert!((jaccard("a b", "b c") - (1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn containment_handles_fragments() {
        assert_eq!(containment("Basktall HS", "Basktall"), 1.0);
        assert!(containment("The Big Sleep", "Big Sleep") >= 0.99);
    }

    #[test]
    fn approx_match_paper_example() {
        // Figure 1: high school "Basktall HS" matches school "Basktall"
        assert!(approx_match("Basktall HS", "Basktall"));
        assert!(!approx_match("Vanhise High", "Basktall"));
        assert!(!approx_match("", "x"));
        assert!(!approx_match("?!", "?!"));
    }
}
