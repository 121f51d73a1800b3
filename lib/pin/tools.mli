(** A library of ready-made Vpin analysis tools (the paper's Section
    III-A use case: feeding ELFies to Pin-based dynamic analyses).

    Every tool is {e marker-aware}: analysis can start at the first ROI
    marker so ELFie startup code is excluded, and can stop after a given
    number of analysed instructions (the region icount recorded in the
    pinball) for a graceful end of analysis. *)

(** Common scaffolding returned by each tool constructor: the tool to
    attach and a function rendering the analysis report. *)
type 'a analysis = { tool : Pintool.t; result : unit -> 'a }

(** Instruction-mix histogram: counts per instruction class. *)
type mix = {
  mix_total : int64;
  mix_classes : (string * int64) list;  (** sorted by count, descending *)
}

val instruction_mix :
  ?from_marker:bool -> ?limit:int64 -> unit -> mix analysis

(** Memory-footprint profiler: distinct pages and cache lines touched,
    read/write volumes. *)
type footprint = {
  fp_pages : int;
  fp_lines : int;
  fp_reads : int64;
  fp_writes : int64;
  fp_bytes_read : int64;
  fp_bytes_written : int64;
}

val memory_footprint :
  ?from_marker:bool -> ?limit:int64 -> unit -> footprint analysis

(** Branch profile: executed/taken counts and the hottest branch sites. *)
type branch_profile = {
  br_executed : int64;
  br_taken : int64;
  br_hottest : (int64 * int) list;  (** (pc, executions), top ten *)
}

val branch_profile :
  ?from_marker:bool -> ?limit:int64 -> unit -> branch_profile analysis

(** Basic-block execution counts (a flat profile over block heads). *)
type block_profile = { bb_blocks : int; bb_hottest : (int64 * int) list }

val block_profile :
  ?from_marker:bool -> ?limit:int64 -> unit -> block_profile analysis

(** Attach the global profiler ({!Elfie_obs.Profile.global}) to a
    machine, when one is installed — the [--profile] hook used by the
    native runner and the replayer. *)
val attach_global_profile : Elfie_machine.Machine.t -> unit

val pp_mix : Format.formatter -> mix -> unit
val pp_footprint : Format.formatter -> footprint -> unit
val pp_branch_profile : Format.formatter -> branch_profile -> unit
val pp_block_profile : Format.formatter -> block_profile -> unit
