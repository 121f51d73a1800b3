(** The ELFie farm batch driver: a resumable, supervised, cache-backed
    front end over the region pipeline.

    A {e manifest} names a batch of jobs, each a (program, region
    parameters) pair. The driver fans jobs across the
    {!Elfie_util.Pool} domains; every job runs under
    {!Elfie_supervise.Supervisor} (crash classification, retry,
    quarantine) and journals its completion through the J1
    {!Elfie_supervise.Journal}, so [--resume] after a kill restarts only
    unfinished jobs. Every pipeline stage of a job — BBV profile,
    SimPoint selection, region pinballs, ELFies, measurements — goes
    through the content-addressed {!Store}: duplicate submissions hit
    cache instead of re-executing, concurrent drivers racing on one key
    perform exactly one computation (per-key advisory locks), and a
    corrupt cached artifact quarantines and recomputes. *)

type params = {
  slice_size : int64;
  max_k : int;
  dims : int;
  sp_seed : int64;  (** SimPoint projection / k-means seed *)
  warmup : int64;  (** warmup instructions per region *)
  trials : int;  (** native measurement trials per region *)
  base_seed : int64;  (** measurement base seed (also the run seed) *)
  max_regions : int;  (** cap on measured regions per job; 0 = all *)
}

val default_params : params

type job = {
  j_name : string;  (** unique within the batch; the journal job name *)
  j_spec : Elfie_workloads.Programs.spec;
  j_params : params;
}

val job : ?params:params -> name:string -> Elfie_workloads.Programs.spec -> job

(** Inputs hashed for journal resume: the job is skipped on [--resume]
    only if none of these changed. *)
val job_inputs : job -> string list

(** {1 Manifest}

    One job per non-comment line:

    {v <name> bench=<suite benchmark> [slice=N] [max-k=N] [warmup=N]
       [trials=N] [seed=N] [regions=N] v}

    [bench] must name an {!Elfie_workloads.Suite} benchmark; blank lines
    and [#] comments are ignored. *)

val manifest_of_string :
  artifact:string -> string -> (job list, Elfie_util.Diag.t) result

val load_manifest : string -> (job list, Elfie_util.Diag.t) result

(** {1 Running} *)

type region_result = {
  rr_cluster : int;
  rr_weight : float;
  rr_cpi : float option;  (** [None] when every trial failed *)
  rr_trials : int;
  rr_failures : int;
}

type job_result = {
  jr_name : string;
  jr_k : int;
  jr_total_ins : int64;
  jr_regions : region_result list;
  jr_pred_cpi : float option;  (** weight-normalized predicted CPI *)
  jr_hits : int;  (** store hits across the job's stages *)
  jr_misses : int;  (** store misses (computations performed) *)
}

type outcome = {
  o_name : string;
  o_skipped : bool;  (** satisfied from the journal; nothing ran *)
  o_report : Elfie_supervise.Supervisor.report;
  o_result : job_result option;  (** [None] when quarantined *)
}

type batch = {
  outcomes : outcome list;  (** manifest order *)
  b_hits : int;
  b_misses : int;
  b_skipped : int;
  b_quarantined : int;
  b_store_quarantines : Store.quarantine list;
      (** corrupt artifacts encountered (and survived) during the batch *)
}

(** Run a batch across up to [jobs] pool domains (default: the pool's
    process default). Job names must be unique; [Invalid_argument]
    otherwise. Worker exceptions are classified and quarantined by the
    supervisor — the batch itself never raises from a job failure. *)
val run :
  ?jobs:int ->
  store:Store.t ->
  ?journal:Elfie_supervise.Journal.t ->
  ?resume:bool ->
  job list ->
  batch

val pp_batch : Format.formatter -> batch -> unit
