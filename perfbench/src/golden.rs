//! The `parpat lint --json` program object, and the checked-in golden
//! snapshot it is compared against.

use parpat_static::diag::json_str;
use parpat_static::Diagnostic;

/// `parpat lint apps --json` over the unpadded suite. Pads move no line and
/// are dead, so every variant of an app must render this app's object.
const GOLDEN: &str = include_str!("../../tests/golden/lint_apps.json");

/// One program's object in `parpat lint --json` output, byte for byte as
/// the CLI renders it.
pub fn render_program(name: &str, diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("{{\"name\": {}, \"diagnostics\": [{}]}}", json_str(name), items.join(", "))
}

/// The golden snapshot, split into one expected object per app.
#[derive(Debug)]
pub struct Golden {
    objects: Vec<(String, String)>,
}

impl Golden {
    /// Split the embedded snapshot `{"programs": [obj, obj, ...]}`.
    pub fn load() -> Result<Golden, String> {
        const OPEN: &str = "{\"name\": ";
        let body = GOLDEN
            .trim_end()
            .strip_prefix("{\"programs\": [")
            .and_then(|b| b.strip_suffix("]}"))
            .ok_or("golden lint snapshot is not a programs array")?;
        let mut objects = Vec::new();
        for (i, part) in body.split(", {\"name\": ").enumerate() {
            let object = if i == 0 { part.to_owned() } else { format!("{OPEN}{part}") };
            let name = object
                .strip_prefix(&format!("{OPEN}\""))
                .and_then(|r| r.split('"').next())
                .ok_or_else(|| format!("golden object {i} has no name"))?
                .to_owned();
            objects.push((name, object));
        }
        Ok(Golden { objects })
    }

    /// The expected object for `app`.
    pub fn expected(&self, app: &str) -> Option<&str> {
        self.objects.iter().find(|(n, _)| n == app).map(|(_, o)| o.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_splits_into_every_suite_app_and_reassembles() {
        let g = Golden::load().expect("golden parses");
        let apps = parpat_suite::all_apps();
        assert_eq!(g.objects.len(), apps.len());
        let objs: Vec<&str> = g.objects.iter().map(|(_, o)| o.as_str()).collect();
        assert_eq!(format!("{{\"programs\": [{}]}}\n", objs.join(", ")), GOLDEN);
        for app in &apps {
            let got = render_program(app.name, &parpat_static::lint_source(app.model));
            assert_eq!(Some(got.as_str()), g.expected(app.name), "{}", app.name);
        }
    }
}
