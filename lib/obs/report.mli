(** Exporter plumbing for the [--trace]/[--metrics]/[--profile[=N]]
    CLI flags.

    [with_reporting ?trace ?metrics ?profile f]:

    - when [profile] is [Some interval], installs a fresh global
      profiler ({!Profile.set_global}) that the runner and replayer
      attach to every machine they create;
    - runs [f ()];
    - then — even if [f] raised — writes the Chrome trace to [trace],
      the Prometheus exposition to [metrics] (followed by the metric
      summary table on stdout), and prints the profiler's top-K
      hot-region report. *)
val with_reporting :
  ?trace:string ->
  ?metrics:string ->
  ?profile:int ->
  (unit -> 'a) ->
  'a
