//! Self-contained HTML report for one served job.
//!
//! `GET /v1/jobs/<digest>/report` renders the job record — state,
//! tenants, supervisor attempt timeline — plus the artefact JSON into
//! a single dependency-free HTML page, mirroring the run reports the
//! CLI writes under `results/`.

use darksil_json::Json;
use darksil_obs::svg::esc;

use crate::registry::JobRecord;

fn attempt_row(attempt: &Json) -> String {
    let field = |name: &str| -> String {
        match attempt {
            Json::Obj(fields) => fields
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| match value {
                    Json::Str(s) => s.clone(),
                    Json::Num(n) => format!("{n}"),
                    Json::Bool(b) => b.to_string(),
                    Json::Null => String::from("—"),
                    other => other.compact(),
                })
                .unwrap_or_else(|| String::from("—")),
            _ => String::from("—"),
        }
    };
    format!(
        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
        esc(&field("attempt")),
        esc(&field("outcome")),
        esc(&field("degraded")),
        esc(&field("backoff_ms")),
        esc(&field("error")),
    )
}

/// Renders the report page. `artefact` is the finished payload when
/// one exists.
#[must_use]
pub fn render(record: &JobRecord, artefact: Option<&Json>) -> String {
    let mut html = String::new();
    html.push_str("<!doctype html>\n<html><head><meta charset=\"utf-8\">\n");
    html.push_str(&format!(
        "<title>darksil job {}</title>\n",
        esc(&record.digest)
    ));
    html.push_str(
        "<style>body{font-family:system-ui,sans-serif;margin:2rem;max-width:60rem}\
         table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:.3rem .6rem;\
         text-align:left}pre{background:#f6f6f6;padding:1rem;overflow:auto}\
         .state{font-weight:bold}</style></head><body>\n",
    );
    html.push_str(&format!(
        "<h1>Job <code>{}</code></h1>\n",
        esc(&record.digest)
    ));
    html.push_str(&format!(
        "<p>state: <span class=\"state\">{}</span> · tenants: {} · {:.3}s</p>\n",
        esc(record.state.label()),
        esc(&record.tenants.join(", ")),
        record.seconds
    ));
    if let Some(error) = &record.error {
        html.push_str(&format!("<p>error: <code>{}</code></p>\n", esc(error)));
    }
    if let Some(cache) = &record.cache {
        html.push_str(&format!("<p>cache: {}</p>\n", esc(cache)));
    }
    if record.attempts.is_empty() {
        html.push_str("<p>No attempts recorded yet.</p>\n");
    } else {
        html.push_str(
            "<h2>Attempts</h2>\n<table><tr><th>#</th><th>outcome</th>\
             <th>degraded</th><th>backoff&nbsp;ms</th><th>error</th></tr>\n",
        );
        for attempt in &record.attempts {
            html.push_str(&attempt_row(attempt));
            html.push('\n');
        }
        html.push_str("</table>\n");
    }
    if let Some(payload) = artefact {
        html.push_str("<h2>Artefact</h2>\n<pre>");
        html.push_str(&esc(&payload.pretty()));
        html.push_str("</pre>\n");
    }
    html.push_str("</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::JobState;

    #[test]
    fn report_escapes_and_includes_the_timeline() {
        let record = JobRecord {
            digest: "abc123".to_string(),
            tenants: vec!["<script>".to_string()],
            state: JobState::Degraded,
            error: None,
            attempts: vec![Json::Obj(vec![
                ("attempt".to_string(), Json::Num(0.0)),
                ("outcome".to_string(), Json::Str("retried".to_string())),
                ("degraded".to_string(), Json::Bool(false)),
                ("backoff_ms".to_string(), Json::Num(50.0)),
                ("error".to_string(), Json::Str("[solver] boom".to_string())),
            ])],
            seconds: 0.25,
            cache: Some("miss".to_string()),
            transitions: Vec::new(),
        };
        let payload = Json::Obj(vec![("name".to_string(), Json::Str("x".to_string()))]);
        let html = render(&record, Some(&payload));
        assert!(html.contains("&lt;script&gt;"), "tenant must be escaped");
        assert!(html.contains("degraded"), "{html}");
        assert!(html.contains("retried"), "{html}");
        assert!(html.contains("Artefact"), "{html}");
        assert!(!html.contains("<script>"), "no raw tenant injection");
    }
}
