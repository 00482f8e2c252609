//! A small blocking client for the line-JSON protocol, used by the
//! example walkthrough and the integration tests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::json::Json;
use crate::protocol::{ErrorCode, Request};
use crate::spec::CreateSessionSpec;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or dropped.
    Io(std::io::Error),
    /// The server's reply was not understood.
    Protocol(String),
    /// The server replied with a typed error.
    Server {
        /// Machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {}: {message}", code.as_str())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The outcome of driving one session to completion.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// The session id.
    pub session: u64,
    /// The seed the server ran the session under.
    pub seed: u64,
    /// Per-iteration MAE, as reported over the wire.
    pub mae_series: Vec<f64>,
    /// Interactions executed.
    pub iterations_run: usize,
    /// First stable iteration, if the session converged.
    pub converged_at: Option<usize>,
    /// Final MAE.
    pub final_mae: f64,
}

/// A connected protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request and reads one reply object. Typed server errors
    /// become [`ClientError::Server`].
    ///
    /// # Errors
    /// Io, protocol, or server failures.
    pub fn call(&mut self, request: &Request) -> Result<Json, ClientError> {
        let mut line = request.to_json().encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed".to_string()));
        }
        let v = Json::parse(reply.trim())
            .map_err(|e| ClientError::Protocol(format!("bad reply: {e}")))?;
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let code = v
                    .get("error")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::from_name)
                    .ok_or_else(|| ClientError::Protocol("error reply without code".to_string()))?;
                let message = v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                Err(ClientError::Server { code, message })
            }
            None => Err(ClientError::Protocol(
                "reply missing \"ok\" member".to_string(),
            )),
        }
    }

    /// Creates a session; returns `(session, seed)`.
    ///
    /// # Errors
    /// Io, protocol, or server failures.
    pub fn create_session(&mut self, spec: &CreateSessionSpec) -> Result<(u64, u64), ClientError> {
        let v = self.call(&Request::Create(spec.clone()))?;
        let session = field_u64(&v, "session")?;
        let seed = field_u64(&v, "seed")?;
        Ok((session, seed))
    }

    /// Asks for the next presentation; returns the raw reply (`"reply"` is
    /// either `"pairs"` or `"done"`).
    ///
    /// # Errors
    /// Io, protocol, or server failures.
    pub fn next_pairs(&mut self, session: u64) -> Result<Json, ClientError> {
        self.call(&Request::NextPairs { session })
    }

    /// Submits labels (`None` delegates to the hosted annotator).
    ///
    /// # Errors
    /// Io, protocol, or server failures.
    pub fn submit_labels(
        &mut self,
        session: u64,
        labels: Option<Vec<bool>>,
    ) -> Result<Json, ClientError> {
        self.call(&Request::SubmitLabels { session, labels })
    }

    /// Fetches a session or server status snapshot.
    ///
    /// # Errors
    /// Io, protocol, or server failures.
    pub fn status(&mut self, session: Option<u64>) -> Result<Json, ClientError> {
        self.call(&Request::Status { session })
    }

    /// Closes a session.
    ///
    /// # Errors
    /// Io, protocol, or server failures.
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        self.call(&Request::Close { session })?;
        Ok(())
    }

    /// Requests graceful server shutdown.
    ///
    /// # Errors
    /// Io, protocol, or server failures.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Shutdown)?;
        Ok(())
    }

    /// Drives session `session` to completion with hosted labels,
    /// collecting the per-iteration MAE curve as reported on the wire.
    ///
    /// # Errors
    /// Io, protocol, or server failures.
    pub fn drive_auto(&mut self, session: u64, seed: u64) -> Result<DriveOutcome, ClientError> {
        let mut mae_series = Vec::new();
        loop {
            let reply = self.next_pairs(session)?;
            match reply.get("reply").and_then(Json::as_str) {
                Some("pairs") => {
                    let labeled = self.submit_labels(session, None)?;
                    let mae = labeled
                        .get("metrics")
                        .and_then(|m| m.get("mae"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| {
                            ClientError::Protocol("labeled reply without mae".to_string())
                        })?;
                    mae_series.push(mae);
                }
                Some("done") => {
                    let iterations_run = usize::try_from(field_u64(&reply, "iterations_run")?)
                        .map_err(|_| out_of_range("iterations_run"))?;
                    let converged_at = reply
                        .get("converged_at")
                        .and_then(Json::as_u64)
                        .map(usize::try_from)
                        .transpose()
                        .map_err(|_| out_of_range("converged_at"))?;
                    let final_mae =
                        reply
                            .get("final_mae")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| {
                                ClientError::Protocol("done reply without final_mae".to_string())
                            })?;
                    return Ok(DriveOutcome {
                        session,
                        seed,
                        mae_series,
                        iterations_run,
                        converged_at,
                        final_mae,
                    });
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected reply kind {other:?}"
                    )))
                }
            }
        }
    }
}

fn out_of_range(key: &str) -> ClientError {
    ClientError::Protocol(format!("reply member {key:?} does not fit usize"))
}

fn field_u64(v: &Json, key: &str) -> Result<u64, ClientError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol(format!("reply missing numeric {key:?}")))
}
