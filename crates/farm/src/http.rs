//! Hand-rolled HTTP/1.1 front end for the farm: a blocking accept loop
//! on `std::net::TcpListener` with one thread per connection. No
//! external dependencies — request parsing covers exactly the subset
//! the dashboard and scripted clients need.
//!
//! Routes:
//!
//! | Route            | Payload                                         |
//! |------------------|-------------------------------------------------|
//! | `GET /`          | embedded single-page dashboard                  |
//! | `GET /metrics`   | Prometheus text exposition (farm + done jobs)   |
//! | `GET /jobs`      | job table JSON                                  |
//! | `GET /heatmap`   | latest per-link busy snapshot JSON              |
//! | `POST /jobs`     | submit (urlencoded body) → `{"id":..,"fresh":..}` |
//! | `GET /submit?..` | submit via query string (curl-friendly)         |
//! | `GET /events`    | SSE stream: txn / window / progress / job / dropped |
//! | `POST /shutdown` | graceful stop (also accepts GET)                |

use crate::runner::Farm;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Longest request head (request line + headers) we accept.
const MAX_HEAD: usize = 16 * 1024;
/// Longest request body we accept.
const MAX_BODY: usize = 64 * 1024;

/// Serve `farm` on `listener` until shutdown is requested. Each
/// connection gets its own thread; the accept loop polls the shutdown
/// flag between (non-blocking) accepts, so Ctrl-C / `POST /shutdown`
/// turns into a prompt, orderly exit.
pub fn serve(farm: &Arc<Farm>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    // The first client usually connects right after the service starts:
    // poll fast at first, doubling the wait up to the steady 20 ms.
    let mut idle = Duration::from_micros(50);
    loop {
        if farm.shutdown_requested() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let farm = farm.clone();
                std::thread::spawn(move || {
                    let _ = handle(&farm, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(idle);
                idle = (idle * 2).min(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    query: String,
    body: String,
}

fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?.to_string();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_len = 0usize;
    let mut head_bytes = line.len();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h)?;
        head_bytes += h.len();
        if head_bytes > MAX_HEAD {
            return Err(bad("request head too large"));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    if content_len > MAX_BODY {
        return Err(bad("request body too large"));
    }
    let mut body = vec![0u8; content_len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not utf-8"))?;
    Ok(Request { method, path, query, body })
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\nAccess-Control-Allow-Origin: *\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn handle(farm: &Arc<Farm>, mut stream: TcpStream) -> std::io::Result<()> {
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let msg = format!("{{\"error\":\"{}\"}}", e.to_string().replace('"', "'"));
            return respond(&mut stream, "400 Bad Request", "application/json", &msg);
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") | ("GET", "/index.html") => {
            respond(&mut stream, "200 OK", "text/html; charset=utf-8", crate::DASHBOARD_HTML)
        }
        ("GET", "/metrics") => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &farm.metrics_text(),
        ),
        ("GET", "/jobs") => respond(&mut stream, "200 OK", "application/json", &farm.jobs_json()),
        ("GET", "/heatmap") => {
            respond(&mut stream, "200 OK", "application/json", &farm.heatmap_json())
        }
        ("POST", "/jobs") => submit(farm, &mut stream, &req.body),
        ("GET", "/submit") => submit(farm, &mut stream, &req.query),
        ("GET", "/events") => stream_events(farm, stream),
        ("POST", "/shutdown") | ("GET", "/shutdown") => {
            farm.request_shutdown();
            respond(&mut stream, "200 OK", "application/json", "{\"shutdown\":true}")
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "application/json",
            "{\"error\":\"no such route\"}",
        ),
    }
}

fn submit(farm: &Arc<Farm>, stream: &mut TcpStream, encoded: &str) -> std::io::Result<()> {
    let parsed = crate::job::JobSpec::parse_query(encoded).and_then(|spec| farm.submit(spec));
    match parsed {
        Ok((id, fresh)) => respond(
            stream,
            "200 OK",
            "application/json",
            &format!("{{\"id\":{id},\"fresh\":{fresh}}}"),
        ),
        Err(e) => respond(
            stream,
            "400 Bad Request",
            "application/json",
            &format!("{{\"error\":\"{}\"}}", e.replace('"', "'")),
        ),
    }
}

/// The SSE endpoint: subscribe to the bus and relay frames until the
/// client hangs up or the farm shuts down. Each drain also reports how
/// many frames this (slow) client lost to ring overflow — losses are
/// explicit, never silent, and never the simulation's problem.
fn stream_events(farm: &Arc<Farm>, mut stream: TcpStream) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\nAccess-Control-Allow-Origin: *\r\n\r\n"
    )?;
    stream.flush()?;
    let sub = farm.bus().subscribe(farm.config().event_ring);
    // First frame: a hello carrying the ring capacity, so clients (and
    // the smoke test) see traffic immediately.
    write!(stream, "event: hello\ndata: {{\"ring\":{}}}\n\n", farm.config().event_ring)?;
    let mut quiet = 0u32;
    loop {
        if farm.shutdown_requested() {
            return write!(stream, "event: bye\ndata: {{\"reason\":\"shutdown\"}}\n\n");
        }
        let (frames, dropped) = sub.drain(Duration::from_millis(250));
        if dropped > 0 {
            write!(stream, "event: dropped\ndata: {{\"frames\":{dropped}}}\n\n")?;
        }
        if frames.is_empty() {
            quiet += 1;
            if quiet >= 40 {
                // ~10 s of silence: SSE comment as keep-alive.
                write!(stream, ": keepalive\n\n")?;
                stream.flush()?;
                quiet = 0;
            }
            continue;
        }
        quiet = 0;
        for frame in &frames {
            stream.write_all(frame.as_bytes())?;
        }
        stream.flush()?;
    }
}
