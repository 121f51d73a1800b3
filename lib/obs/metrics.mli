(** Process-global metrics registry: counters, gauges and fixed-bucket
    histograms with Prometheus-style labels.

    Execution layers declare metric families by name ({!counter},
    {!gauge}, {!histogram} are get-or-create and cheap) and mutate
    labelled series ({!inc}, {!set}, {!observe}). The registry renders
    as a Prometheus text exposition ({!exposition}) and as a
    human-readable end-of-run summary table ({!summary}).

    Family names follow the usual conventions ([elfie_runs_total],
    [elfie_region_instructions], ...); creating the same name twice with
    a different kind raises [Invalid_argument].

    All operations are domain-safe: the registry is guarded by a single
    mutex, so series updated concurrently from {!Elfie_util.Pool}
    workers lose no increments. *)

(** A family descriptor. Descriptors stay valid across {!reset}: the
    next mutation re-registers the family. *)
type family

(** Get or create a counter family. *)
val counter : ?help:string -> string -> family

(** Get or create a gauge family. *)
val gauge : ?help:string -> string -> family

(** Get or create a histogram family with fixed upper bucket bounds
    (ascending, exclusive of [+Inf], which is implicit). The default
    buckets are the Prometheus classics
    [0.005 .. 10]. *)
val histogram : ?help:string -> ?buckets:float list -> string -> family

(** Increment a counter series by [by] (default 1). *)
val inc : ?labels:(string * string) list -> ?by:float -> family -> unit

(** Set a gauge series. *)
val set : ?labels:(string * string) list -> family -> float -> unit

(** Record an observation in a histogram series. *)
val observe : ?labels:(string * string) list -> family -> float -> unit

(** Current value of a counter/gauge series (0 when never touched); for
    a histogram, the observation count. *)
val value : ?labels:(string * string) list -> family -> float

(** Sum of {!value} over every series of the family. *)
val total : family -> float

(** Cumulative histogram snapshot of one series: [(le, count)] pairs
    (with [infinity] for the +Inf bucket), the sum, and the count. *)
val bucket_snapshot :
  ?labels:(string * string) list ->
  family ->
  (float * int) list * float * int

(** Registered family names, in registration order. *)
val families : unit -> string list

(** Prometheus text exposition of every registered family (HELP/TYPE
    headers, escaped label values, cumulative histogram buckets). *)
val exposition : unit -> string

(** Human-readable end-of-run table: one row per family with its series
    count and total. *)
val summary : unit -> string

(** Drop every family and series. *)
val reset : unit -> unit
