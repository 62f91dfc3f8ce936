//! The served fit does not depend on the engine's thread count:
//! `haqjsk-serve` processes on 1, 2 and 4 engine threads fit the same
//! graphs, and their persisted model texts, `kernel_row` replies and
//! `gram` replies must match byte for byte. The fit builds its prototype
//! layers, DB traces and Gram on the worker pool, so this is the
//! end-to-end check that the pool changes nothing.

use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::Json;
use haqjsk::graph::generators::{cycle_graph, erdos_renyi, path_graph, star_graph};
use haqjsk::graph::Graph;
use haqjsk::serving::GRAM_MAX_ROWS;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

struct ServeProcess {
    child: Child,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ServeProcess {
    /// Spawns the server binary on an ephemeral port with `threads` engine
    /// workers and connects to the address its banner names.
    fn spawn(threads: usize) -> ServeProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_haqjsk-serve"))
            .arg("127.0.0.1:0")
            .env("HAQJSK_THREADS", threads.to_string())
            .env_remove("HAQJSK_BACKEND")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn haqjsk-serve");
        let mut banner = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut banner)
            .expect("read server banner");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected server banner: {banner:?}"))
            .to_string();
        let stream = TcpStream::connect(&addr).expect("connect to haqjsk-serve");
        // Requests go out as they are written: Nagle's algorithm would
        // hold each line's tail behind the server's delayed ACK.
        stream.set_nodelay(true).expect("disable Nagle");
        ServeProcess {
            child,
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request and returns the raw reply line and whether it
    /// is `ok`.
    fn exchange(&mut self, body: &str) -> (String, bool) {
        writeln!(self.writer, "{body}").expect("send request");
        self.writer.flush().expect("flush request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        let reply = Json::parse(line.trim()).expect("reply is valid JSON");
        let ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
        (line, ok)
    }

    /// Sends one request and returns the raw reply line, which must be
    /// `ok`.
    fn request(&mut self, body: &str) -> String {
        let (line, ok) = self.exchange(body);
        assert!(ok, "request {body} failed: {line}");
        line
    }

    /// Sends one request that must get an error envelope.
    fn refused(&mut self, body: &str) -> String {
        let (line, ok) = self.exchange(body);
        assert!(!ok, "request {body} was not refused: {line}");
        assert!(line.contains("\"error\""), "{line}");
        line
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Training graphs with several DB-trace layers and a duplicate, so the
/// fit runs more than one prototype layer and deduplicates a transform.
fn training_set() -> Vec<Graph> {
    let mut graphs: Vec<Graph> = (5..11)
        .flat_map(|n| {
            [
                cycle_graph(n),
                path_graph(n),
                star_graph(n),
                erdos_renyi(n + 2, 0.3, n as u64),
            ]
        })
        .collect();
    graphs.push(graphs[2].clone());
    graphs
}

/// The raw `save`, `kernel_row` and `gram` replies of one server after
/// fitting each variant, and its refusals of bad `gram` ranges.
fn replies(server: &mut ServeProcess) -> Vec<String> {
    let graphs = Json::Arr(training_set().iter().map(graph_to_json).collect());
    let queries = [cycle_graph(12), erdos_renyi(9, 0.4, 77), path_graph(3)];
    let mut out = Vec::new();
    for variant in ["A", "D"] {
        server.request(&format!(
            "{{\"cmd\":\"fit\",\"graphs\":{graphs},\"variant\":\"{variant}\",\
             \"config\":{{\"hierarchy_levels\":3,\"num_prototypes\":32,\"layer_cap\":4}}}}"
        ));
        out.push(server.request("{\"cmd\":\"save\"}"));
        for query in &queries {
            out.push(server.request(&format!(
                "{{\"cmd\":\"kernel_row\",\"graph\":{}}}",
                graph_to_json(query)
            )));
        }
        // All rows in one read, then in two pages; a range past the
        // served set and a reversed one are refused.
        let n = training_set().len();
        out.push(server.request("{\"cmd\":\"gram\"}"));
        out.push(server.request("{\"cmd\":\"gram\",\"to\":10}"));
        out.push(server.request("{\"cmd\":\"gram\",\"from\":10}"));
        out.push(server.refused(&format!(
            "{{\"cmd\":\"gram\",\"from\":{n},\"to\":{}}}",
            n + 1
        )));
        out.push(server.refused("{\"cmd\":\"gram\",\"from\":2,\"to\":1}"));
    }
    // Appends of one graph (a transform-cache hit each, no kernel work)
    // grow the served set past the row cap: a full read is refused.
    let arrival = format!(
        "{{\"cmd\":\"append\",\"graph\":{}}}",
        graph_to_json(&path_graph(4))
    );
    for _ in training_set().len()..=GRAM_MAX_ROWS {
        server.request(&arrival);
    }
    out.push(server.refused("{\"cmd\":\"gram\"}"));
    out
}

/// The bit patterns of a `kernel_row` reply's values.
fn row_bits(reply: &str) -> Vec<u64> {
    Json::parse(reply.trim())
        .expect("reply is valid JSON")
        .get("values")
        .and_then(Json::as_array)
        .expect("kernel_row reply carries 'values'")
        .iter()
        .map(|v| v.as_f64().expect("numeric kernel value").to_bits())
        .collect()
}

/// The bit patterns of a `gram` reply's rows.
fn gram_bits(reply: &str) -> Vec<Vec<u64>> {
    Json::parse(reply.trim())
        .expect("reply is valid JSON")
        .get("rows")
        .and_then(Json::as_array)
        .expect("gram reply carries 'rows'")
        .iter()
        .map(|row| {
            row.as_array()
                .expect("a row is an array")
                .iter()
                .map(|v| v.as_f64().expect("numeric kernel value").to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn fits_on_one_two_and_four_engine_threads_serve_identical_bytes() {
    let one = replies(&mut ServeProcess::spawn(1));
    let n = training_set().len();
    for threads in [2, 4] {
        let other = replies(&mut ServeProcess::spawn(threads));
        assert_eq!(one.len(), other.len());
        for (i, (a, b)) in one.iter().zip(&other).enumerate() {
            assert_eq!(
                a, b,
                "reply {i} differs between 1 and {threads} engine threads"
            );
            if a.contains("\"values\"") {
                let bits = row_bits(a);
                assert_eq!(bits.len(), n);
                assert_eq!(bits, row_bits(b));
            }
            if a.contains("\"rows\"") {
                let rows = gram_bits(a);
                assert!(rows.iter().all(|row| row.len() == n));
                assert_eq!(rows, gram_bits(b));
            }
        }
    }
}
