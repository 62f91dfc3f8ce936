//! Saving and loading fitted HAQJSK models.
//!
//! Fitting a HAQJSK model means learning the prototype hierarchy over a whole
//! dataset — the expensive, dataset-dependent part of the pipeline. This
//! module serialises a fitted model (configuration, variant, layer count and
//! every prototype vector) to a line-oriented text format and restores it, so
//! a model can be fitted once and reused for out-of-sample kernel evaluation
//! without recomputing the κ-means hierarchy.
//!
//! Format (one declaration per line):
//!
//! ```text
//! haqjsk-model v1
//! variant <A|D>
//! config <H> <M> <shrink> <min_protos> <layer_cap> <kmeans_iters> <seed> <mu>
//! max_layers <K>
//! layer <k>
//! level <h> <num_prototypes>
//! proto <v_1> <v_2> ... <v_k>
//! ...
//! end
//! checksum <fnv128-hex>        (optional integrity footer)
//! ```
//!
//! The `checksum` footer is the FNV-1a 128-bit digest
//! ([`model_artifact_id`]) of everything up to and including the `end`
//! line. [`persisted_model_text`] emits it, [`model_from_string`] verifies
//! it when present and hard-errors on a mismatch; footer-less v1 text (the
//! pre-footer format, and [`model_to_string`]'s output, whose digest *is*
//! the distributed artifact id and therefore must not change) still loads.
//!
//! ## Crash-safe files
//!
//! [`save_model_file`] writes the footered text to `<path>.tmp`, fsyncs
//! it, and atomically renames it over `<path>` (fsyncing the directory,
//! best-effort), so a crash at any instant leaves either the previous
//! complete model or the new complete model at `<path>` — never a torn
//! file. [`load_model_file`] reads and checksum-verifies a model, and when
//! `<path>` is missing but a stray `<path>.tmp` exists, says so explicitly
//! (an interrupted save never committed).

use crate::config::{HaqjskConfig, HaqjskVariant};
use crate::hierarchy::{LayerHierarchy, PrototypeHierarchy};
use crate::model::HaqjskModel;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Errors produced while parsing a serialised model.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistenceError(pub String);

impl std::fmt::Display for PersistenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model parse error: {}", self.0)
    }
}

impl std::error::Error for PersistenceError {}

/// Serialises a fitted model to the text format.
pub fn model_to_string(model: &HaqjskModel) -> String {
    let mut out = String::new();
    let config = model.config();
    writeln!(out, "haqjsk-model v1").expect("writing to String cannot fail");
    writeln!(
        out,
        "variant {}",
        match model.variant() {
            HaqjskVariant::AlignedAdjacency => "A",
            HaqjskVariant::AlignedDensity => "D",
        }
    )
    .expect("writing to String cannot fail");
    writeln!(
        out,
        "config {} {} {} {} {} {} {} {}",
        config.hierarchy_levels,
        config.num_prototypes,
        config.level_shrink,
        config.min_prototypes,
        config.layer_cap,
        config.kmeans_max_iterations,
        config.seed,
        config.mu
    )
    .expect("writing to String cannot fail");
    writeln!(out, "max_layers {}", model.max_layers()).expect("writing to String cannot fail");
    let hierarchy = model.hierarchy();
    for k in 1..=hierarchy.max_layers() {
        writeln!(out, "layer {k}").expect("writing to String cannot fail");
        let layer = hierarchy.layer(k);
        for h in 1..=layer.num_levels() {
            let prototypes = layer.prototypes(h);
            writeln!(out, "level {h} {}", prototypes.len()).expect("writing to String cannot fail");
            for proto in prototypes {
                let joined: Vec<String> = proto.iter().map(|x| format!("{x:.17e}")).collect();
                writeln!(out, "proto {}", joined.join(" ")).expect("writing to String cannot fail");
            }
        }
    }
    out.push_str("end\n");
    out
}

/// Content digest of a serialised model (FNV-1a over the text bytes, 32
/// hex digits) — the id distributed workers dedup model artifacts on, in
/// the same shape as the dataset ids of `haqjsk-dist`.
pub fn model_artifact_id(text: &str) -> String {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut state = OFFSET;
    for byte in text.as_bytes() {
        state ^= *byte as u128;
        state = state.wrapping_mul(PRIME);
    }
    format!("{state:032x}")
}

/// Serialises a fitted model with the integrity footer appended — the
/// form [`save_model_file`] writes to disk. Kept separate from
/// [`model_to_string`] because the latter's exact bytes are the
/// distributed model-artifact content address.
pub fn persisted_model_text(model: &HaqjskModel) -> String {
    let mut text = model_to_string(model);
    let digest = model_artifact_id(&text);
    writeln!(text, "checksum {digest}").expect("writing to String cannot fail");
    text
}

/// Splits serialised model text into the body (through the `end` line,
/// inclusive) and the optional `checksum` footer value. Errors on trailing
/// garbage after `end` that is not exactly one well-formed footer line.
fn split_footer(text: &str) -> Result<(&str, Option<&str>), PersistenceError> {
    let mut offset = 0usize;
    let mut body_end = None;
    for chunk in text.split_inclusive('\n') {
        offset += chunk.len();
        if chunk.trim() == "end" {
            body_end = Some(offset);
            break;
        }
    }
    let Some(body_end) = body_end else {
        // No `end` line: let the body parser produce its own error (or
        // succeed, for hand-written fixtures) — there is no footer.
        return Ok((text, None));
    };
    let (body, trailer) = text.split_at(body_end);
    let mut footer = None;
    for line in trailer.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next(), footer) {
            (Some("checksum"), Some(digest), None, None) => footer = Some(digest),
            (Some("checksum"), _, _, Some(_)) => {
                return Err(PersistenceError("duplicate checksum footer".to_string()));
            }
            _ => {
                return Err(PersistenceError(format!(
                    "unexpected content after 'end': '{line}'"
                )));
            }
        }
    }
    Ok((body, footer))
}

/// Restores a fitted model from the text format, verifying the `checksum`
/// footer when one is present (footer-less v1 text is accepted for
/// backward compatibility; a mismatched checksum is a hard error).
pub fn model_from_string(text: &str) -> Result<HaqjskModel, PersistenceError> {
    let (body, footer) = split_footer(text)?;
    if let Some(expected) = footer {
        let actual = model_artifact_id(body);
        if actual != expected {
            return Err(PersistenceError(format!(
                "checksum mismatch: footer says {expected}, content hashes to {actual} \
                 (the file is corrupt or was modified)"
            )));
        }
    }
    let text = body;
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    let header = lines
        .next()
        .ok_or_else(|| PersistenceError("empty input".to_string()))?;
    if header != "haqjsk-model v1" {
        return Err(PersistenceError(format!("unexpected header '{header}'")));
    }

    let mut variant: Option<HaqjskVariant> = None;
    let mut config: Option<HaqjskConfig> = None;
    let mut max_layers: Option<usize> = None;
    let mut layers: Vec<LayerHierarchy> = Vec::new();
    // The declared prototype count of every level, checked once parsed:
    // nothing is sized from a declared count.
    let mut declared: Vec<Vec<usize>> = Vec::new();

    for line in lines {
        if line == "end" {
            break;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap_or_default();
        match keyword {
            "variant" => {
                variant = Some(match parts.next() {
                    Some("A") => HaqjskVariant::AlignedAdjacency,
                    Some("D") => HaqjskVariant::AlignedDensity,
                    other => {
                        return Err(PersistenceError(format!("unknown variant {other:?}")));
                    }
                });
            }
            "config" => {
                let values: Vec<&str> = parts.collect();
                if values.len() != 8 {
                    return Err(PersistenceError("config line needs 8 fields".to_string()));
                }
                let parse_usize = |s: &str| parse_field(s, "integer");
                let parse_f64 = |s: &str| parse_field(s, "float");
                config = Some(HaqjskConfig {
                    hierarchy_levels: parse_usize(values[0])?,
                    num_prototypes: parse_usize(values[1])?,
                    level_shrink: parse_f64(values[2])?,
                    min_prototypes: parse_usize(values[3])?,
                    layer_cap: parse_usize(values[4])?,
                    kmeans_max_iterations: parse_usize(values[5])?,
                    seed: parse_field(values[6], "seed")?,
                    mu: parse_f64(values[7])?,
                    max_layers: None,
                });
            }
            "max_layers" => max_layers = Some(parse_field(next_field(&mut parts)?, "max_layers")?),
            "layer" => {
                let k = parse_field(next_field(&mut parts)?, "layer index")?;
                layers.push(LayerHierarchy {
                    k,
                    levels: Vec::new(),
                });
                declared.push(Vec::new());
            }
            "level" => {
                let (Some(layer), Some(counts)) = (layers.last_mut(), declared.last_mut()) else {
                    return Err(PersistenceError("level before layer".to_string()));
                };
                let h: usize = parse_field(next_field(&mut parts)?, "level index")?;
                if h != layer.levels.len() + 1 {
                    return fail(format!("layer {}: level {h} out of sequence", layer.k));
                }
                counts.push(parse_field(next_field(&mut parts)?, "prototype count")?);
                layer.levels.push(Vec::new());
            }
            "proto" => {
                let layer = layers
                    .last_mut()
                    .ok_or_else(|| PersistenceError("proto before layer".to_string()))?;
                let k = layer.k;
                let level = layer
                    .levels
                    .last_mut()
                    .ok_or_else(|| PersistenceError("proto before level".to_string()))?;
                let values = parts
                    .map(|s| parse_field::<f64>(s, "prototype value"))
                    .collect::<Result<Vec<f64>, _>>()?;
                if values.len() != k || values.iter().any(|v| !v.is_finite()) {
                    return fail(format!("layer {k} needs {k} finite values: '{line}'"));
                }
                level.push(values);
            }
            other => {
                return Err(PersistenceError(format!("unrecognised keyword '{other}'")));
            }
        }
    }

    let variant = variant.ok_or_else(|| PersistenceError("missing variant".to_string()))?;
    let config = config.ok_or_else(|| PersistenceError("missing config".to_string()))?;
    let max_layers =
        max_layers.ok_or_else(|| PersistenceError("missing max_layers".to_string()))?;
    // The loaded model's K is fixed, so the config is checked as if it had
    // asked for it explicitly.
    HaqjskConfig {
        max_layers: Some(max_layers),
        ..config.clone()
    }
    .validate()
    .map_err(|e| PersistenceError(format!("invalid config: {e}")))?;
    if layers.len() != max_layers {
        return fail(format!("max_layers is {max_layers}, not {}", layers.len()));
    }
    for (i, (layer, counts)) in layers.iter().zip(&declared).enumerate() {
        let (k, levels, most) = (layer.k, layer.levels.len(), config.hierarchy_levels);
        if k != i + 1 {
            return fail(format!("layer {k} is out of sequence"));
        }
        if levels == 0 || levels > most {
            return fail(format!("layer {k}: {levels} levels, not 1..={most}"));
        }
        for (h, (prototypes, &count)) in (1..).zip(layer.levels.iter().zip(counts)) {
            let listed = prototypes.len();
            if listed != count {
                return fail(format!(
                    "layer {k} level {h}: {count} declared, {listed} given"
                ));
            }
        }
    }
    let hierarchy = PrototypeHierarchy::from_layers(layers);
    Ok(HaqjskModel::from_parts(
        config, variant, max_layers, hierarchy,
    ))
}

/// A parse error.
fn fail<T>(message: String) -> Result<T, PersistenceError> {
    Err(PersistenceError(message))
}

/// The next whitespace-separated field of a declaration line.
fn next_field<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, PersistenceError> {
    parts
        .next()
        .ok_or_else(|| PersistenceError("declaration is missing a field".to_string()))
}

/// Parses one field, naming `what` in the error.
fn parse_field<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, PersistenceError>
where
    T::Err: std::fmt::Display,
{
    s.parse()
        .map_err(|e| PersistenceError(format!("bad {what} '{s}': {e}")))
}

/// The sibling temporary path an in-progress [`save_model_file`] writes
/// to before committing: `<path>.tmp` (extension appended, not replaced).
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Atomically persists a fitted model to `path` with an integrity footer:
/// writes [`persisted_model_text`] to `<path>.tmp`, fsyncs it, renames it
/// over `path`, and fsyncs the parent directory (best-effort). A crash at
/// any point leaves `path` either untouched (previous model intact) or
/// fully written — never torn.
pub fn save_model_file(model: &HaqjskModel, path: &Path) -> std::io::Result<()> {
    let text = persisted_model_text(model);
    let tmp = tmp_sibling(path);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        // The contents must be durable before the rename commits them, or
        // a crash could leave a committed name pointing at torn bytes.
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // Durability of the rename itself; failure here only weakens the
        // crash window, it does not corrupt anything.
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Loads and checksum-verifies a model saved by [`save_model_file`]
/// (footer-less v1 files also load). When `path` is missing but a stray
/// `<path>.tmp` exists, the error says a save was interrupted mid-write —
/// the temporary was never committed and the previous model (if any) was
/// the last durable state.
pub fn load_model_file(path: &Path) -> Result<HaqjskModel, PersistenceError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let tmp = tmp_sibling(path);
            if tmp.exists() {
                return Err(PersistenceError(format!(
                    "{} not found, but {} exists: a save was interrupted mid-write and never \
                     committed; the temporary file is not trusted (delete it and re-save)",
                    path.display(),
                    tmp.display()
                )));
            }
            return Err(PersistenceError(format!("{} not found", path.display())));
        }
        Err(e) => {
            return Err(PersistenceError(format!(
                "cannot read {}: {e}",
                path.display()
            )));
        }
    };
    model_from_string(&text)
        .map_err(|PersistenceError(msg)| PersistenceError(format!("{}: {msg}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{barabasi_albert, cycle_graph, star_graph};

    fn fitted_model() -> (Vec<haqjsk_graph::Graph>, HaqjskModel) {
        let graphs = vec![
            cycle_graph(7),
            star_graph(7),
            barabasi_albert(8, 2, 1),
            cycle_graph(9),
            star_graph(6),
        ];
        let model = HaqjskModel::fit(
            &graphs,
            HaqjskConfig {
                hierarchy_levels: 2,
                num_prototypes: 6,
                layer_cap: 3,
                ..HaqjskConfig::small()
            },
            HaqjskVariant::AlignedDensity,
        )
        .unwrap();
        (graphs, model)
    }

    #[test]
    fn roundtrip_preserves_kernel_values() {
        let (graphs, model) = fitted_model();
        let text = model_to_string(&model);
        assert!(text.starts_with("haqjsk-model v1"));
        let restored = model_from_string(&text).unwrap();
        assert_eq!(restored.variant(), model.variant());
        assert_eq!(restored.max_layers(), model.max_layers());
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                let a = model.kernel_between(&graphs[i], &graphs[j]).unwrap();
                let b = restored.kernel_between(&graphs[i], &graphs[j]).unwrap();
                assert!((a - b).abs() < 1e-10, "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn roundtrip_preserves_the_hierarchy_exactly() {
        let (_, model) = fitted_model();
        let restored = model_from_string(&model_to_string(&model)).unwrap();
        let h1 = model.hierarchy();
        let h2 = restored.hierarchy();
        assert_eq!(h1.max_layers(), h2.max_layers());
        assert_eq!(h1.num_levels(), h2.num_levels());
        for k in 1..=h1.max_layers() {
            for h in 1..=h1.num_levels() {
                assert_eq!(h1.layer(k).prototypes(h), h2.layer(k).prototypes(h));
            }
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(model_from_string("").is_err());
        assert!(model_from_string("not a model\n").is_err());
        assert!(model_from_string("haqjsk-model v1\nvariant X\nend\n").is_err());
        assert!(model_from_string("haqjsk-model v1\nconfig 1 2 3\nend\n").is_err());
        assert!(model_from_string("haqjsk-model v1\nproto 1.0\nend\n").is_err());
        assert!(model_from_string("haqjsk-model v1\nlevel 1 2\nend\n").is_err());
        assert!(model_from_string(
            "haqjsk-model v1\nvariant A\nconfig 2 6 0.5 2 3 25 42 1\nmax_layers 3\nend\n"
        )
        .is_err()); // no layers
        assert!(model_from_string("haqjsk-model v1\nbogus line\nend\n").is_err());
    }

    #[test]
    fn text_no_fit_could_produce_is_rejected_without_sizing_anything_from_it() {
        let (_, model) = fitted_model();
        let text = model_to_string(&model);
        let line = |prefix: &str| text.lines().find(|l| l.starts_with(prefix)).unwrap();
        let with = |prefix: &str, new: &str| text.replacen(line(prefix), new, 1);
        let (level, proto, config) = (line("level 1 "), line("proto "), line("config "));
        let count: usize = level.rsplit(' ').next().unwrap().parse().unwrap();
        let mu = |mu: &str| format!("{} {mu}", &config[..config.rfind(' ').unwrap()]);
        let k = model.max_layers();
        let block = |k: usize| {
            let start = text.find(&format!("layer {k}\n")).unwrap();
            let len = text[start..].find(&format!("layer {}\n", k + 1)).unwrap();
            &text[start..start + len]
        };
        let cases = [
            // Layer 1 listed twice (every prototype the right width).
            text.replacen(block(2), block(1), 1),
            with("level 1 ", "level 1 100000000000000000"),
            with("level 1 ", "level 1 1000000000000000000"),
            with("level 1 ", &format!("level 1 {}", count + 1)),
            with("level 1 ", &format!("level 1 {}", count - 1)),
            with("level 1 ", &format!("level 2 {count}")),
            with("proto ", "proto"),
            with("proto ", &format!("{proto} 0.5")),
            with("proto ", "proto NaN"),
            with("proto ", "proto inf"),
            with("max_layers ", "max_layers 0"),
            with("max_layers ", &format!("max_layers {}", k + 1)),
            with("layer 1", "layer 0"),
            with("layer 2", &format!("layer {}", k + 1)),
            with("layer 2", "layer 1"),
            with("config ", &mu("-1")),
            with("config ", &mu("NaN")),
            with("config ", &mu("inf")),
        ];
        for (i, bad) in cases.iter().enumerate() {
            assert!(model_from_string(bad).is_err(), "case {i} must be rejected");
        }
        assert!(model_from_string(&text).is_ok());
    }

    #[test]
    fn serialised_text_is_line_oriented_and_terminated() {
        let (_, model) = fitted_model();
        let text = model_to_string(&model);
        assert!(text.ends_with("end\n"));
        assert!(text.contains("variant D"));
        assert!(text.contains("max_layers"));
        assert!(text.lines().filter(|l| l.starts_with("layer ")).count() >= 1);
    }

    /// A unique scratch directory per test (no tempfile crate available).
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("haqjsk-persistence-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn footered_text_roundtrips_and_verifies() {
        let (_, model) = fitted_model();
        let text = persisted_model_text(&model);
        assert!(text.contains("\nchecksum "));
        let restored = model_from_string(&text).unwrap();
        assert_eq!(
            restored.hierarchy().max_layers(),
            model.hierarchy().max_layers()
        );
        // The footer digest is computed over exactly the artifact-id body,
        // so the on-disk form stays content-addressable.
        let body = model_to_string(&model);
        assert!(text.starts_with(&body));
        assert!(text.ends_with(&format!("checksum {}\n", model_artifact_id(&body))));
    }

    #[test]
    fn footer_less_v1_text_still_loads() {
        let (_, model) = fitted_model();
        let text = model_to_string(&model); // no footer — the pre-footer format
        assert!(!text.contains("checksum"));
        assert!(model_from_string(&text).is_ok());
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let (_, model) = fitted_model();
        let text = persisted_model_text(&model);
        // Flip one digit inside a prototype value — the parse would still
        // succeed, only the checksum catches it.
        let idx = text.find("proto ").unwrap() + "proto ".len() + 3;
        let mut bytes = text.into_bytes();
        bytes[idx] = if bytes[idx] == b'5' { b'6' } else { b'5' };
        let tampered = String::from_utf8(bytes).unwrap();
        let err = model_from_string(&tampered).unwrap_err();
        assert!(err.0.contains("checksum mismatch"), "got: {}", err.0);
    }

    #[test]
    fn truncated_text_is_rejected() {
        let (_, model) = fitted_model();
        let text = persisted_model_text(&model);
        // Truncation before `end` loses the footer too; the parse then
        // fails structurally (incomplete, but keywords are well-formed
        // only by luck) — cutting mid-line guarantees a hard error.
        let cut = text.len() / 2;
        let truncated = &text[..cut];
        assert!(model_from_string(truncated).is_err());
    }

    #[test]
    fn trailing_garbage_after_end_is_rejected() {
        let (_, model) = fitted_model();
        let mut text = model_to_string(&model);
        text.push_str("variant A\n");
        let err = model_from_string(&text).unwrap_err();
        assert!(err.0.contains("after 'end'"), "got: {}", err.0);
        let mut twice = persisted_model_text(&model);
        twice.push_str("checksum 00\n");
        let err = model_from_string(&twice).unwrap_err();
        assert!(err.0.contains("duplicate"), "got: {}", err.0);
    }

    #[test]
    fn save_load_file_roundtrip_is_byte_identical() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("model.haqjsk");
        let (_, model) = fitted_model();
        save_model_file(&model, &path).unwrap();
        assert!(!tmp_sibling(&path).exists(), "tmp was renamed away");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, persisted_model_text(&model));
        let restored = load_model_file(&path).unwrap();
        assert_eq!(model_to_string(&restored), model_to_string(&model));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_replaces_previous_model_atomically() {
        let dir = scratch_dir("replace");
        let path = dir.join("model.haqjsk");
        let (_, model) = fitted_model();
        save_model_file(&model, &path).unwrap();
        // Second save over the same path: rename replaces, never appends.
        save_model_file(&model, &path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            persisted_model_text(&model)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_file_is_rejected_on_load() {
        let dir = scratch_dir("corrupt");
        let path = dir.join("model.haqjsk");
        let (_, model) = fitted_model();
        save_model_file(&model, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model_file(&path).unwrap_err();
        assert!(
            err.0.contains("checksum mismatch") || err.0.contains("parse"),
            "got: {}",
            err.0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_from_a_crashed_save_is_reported() {
        let dir = scratch_dir("stray-tmp");
        let path = dir.join("model.haqjsk");
        // Simulate a crash between tmp-write and rename: only the tmp
        // exists (torn, at that).
        std::fs::write(tmp_sibling(&path), b"haqjsk-model v1\nvariant A\nconf").unwrap();
        let err = load_model_file(&path).unwrap_err();
        assert!(err.0.contains("interrupted mid-write"), "got: {}", err.0);

        // With a previous committed model present, the stray tmp is
        // irrelevant: the committed file loads.
        let (_, model) = fitted_model();
        save_model_file(&model, &path).unwrap();
        std::fs::write(tmp_sibling(&path), b"torn bytes from a later crash").unwrap();
        assert!(load_model_file(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
