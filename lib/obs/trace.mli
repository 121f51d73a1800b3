(** Structured tracing: lightweight spans and instant events.

    The process-wide tracer buffers events in memory; execution layers
    emit spans (a named interval with key/value attributes) and instant
    events at well-known points — pipeline stages, supervisor attempts,
    runner phases, simulator runs, replays. The buffer can be exported
    as Chrome [trace_event] JSON (loadable in [about:tracing] or
    Perfetto).

    Timestamps are microseconds relative to the tracer epoch (process
    start or the last {!reset}) and are paired with a monotonically
    increasing sequence number, so event ordering is well defined even
    when the clock ties. Emission is cheap and allocation-free when
    tracing is disabled; the buffer is bounded (events past the capacity
    are counted in {!dropped}, not stored). *)

(** Attribute values. *)
type value = S of string | I of int64 | F of float | B of bool

type attrs = (string * value) list

(** A completed event, as stored in the buffer. [Span] durations and all
    timestamps are in microseconds; [depth] is the span-nesting level at
    emission time; [seq] is the begin-time sequence number. *)
type event =
  | Span of {
      name : string;
      ts : float;
      dur : float;
      depth : int;
      seq : int;
      attrs : attrs;
    }
  | Instant of {
      name : string; ts : float; depth : int; seq : int; attrs : attrs;
    }

(** An in-flight span handle, as returned by {!begin_span}. *)
type span

(** Tracing is enabled by default; when disabled, every emission
    function is a no-op. *)
val set_enabled : bool -> unit

(** Buffer capacity (default 65536 events); events emitted once the
    buffer is full are dropped and counted. *)
val set_capacity : int -> unit

(** Open a span. The span must be closed with {!end_span} (or use
    {!with_span}); spans close in LIFO order. *)
val begin_span : ?attrs:attrs -> string -> span

(** Attach an attribute to an in-flight span. *)
val add_attr : span -> string -> value -> unit

(** Close a span, appending it to the buffer; [attrs] are added to those
    given at begin time. Closing twice is a no-op. *)
val end_span : ?attrs:attrs -> span -> unit

(** [with_span name f] runs [f] inside a span. An exception closes the
    span with an ["error"] attribute and re-raises. *)
val with_span : ?attrs:attrs -> string -> (span -> 'a) -> 'a

(** Emit a zero-duration event at the current nesting depth. *)
val instant : ?attrs:attrs -> string -> unit

(** Buffered events, oldest (lowest completion order) first. Note that a
    nested span completes before its parent. *)
val events : unit -> event list

(** Total events emitted since the last {!reset}, including dropped. *)
val emitted : unit -> int

val dropped : unit -> int

(** Names of buffered span events (completion order). *)
val span_names : unit -> string list

(** Clear the buffer and restart the epoch and sequence numbers. *)
val reset : unit -> unit

(** Export the buffer as Chrome [trace_event] JSON: an object with a
    ["traceEvents"] array of ["ph":"X"] complete events and ["ph":"i"]
    instants, preceded by ["ph":"M"] [process_name] / [thread_name]
    metadata so the trace shows named tracks. Every event carries this
    process's pid and the process is labelled with the executable
    basename. *)
val to_chrome : unit -> string

(** {!to_chrome} to a file. *)
val write_chrome : string -> unit
