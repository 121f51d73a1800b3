(** Typed payload codecs + key builders for the farm {!Store}.

    One binary codec per artifact kind, each with its own format
    version: bumping a version re-keys nothing but makes every artifact
    written under the old version read as {e format skew} — quarantined
    and recomputed, never misparsed.

    The key builders normalize the parameters that actually determine
    each artifact, so the dependency chain is incremental: a BBV profile
    is keyed by program bytes + slice size (+ the run seed), a SimPoint
    selection adds the clustering parameters on top — changing [max_k]
    re-keys the selection but {e hits} the cached BBV profile. *)

(** Payload format version of a kind's codec (checked by the store on
    every read). *)
val format : Store.kind -> int

(** {1 Key builders} *)

val bbv_key :
  program:string -> slice_size:int64 -> ?seed:int64 -> unit -> Store.key

val selection_key :
  program:string ->
  params:Elfie_simpoint.Simpoint.params ->
  ?seed:int64 ->
  unit ->
  Store.key

(** A region pinball: program + the captured instruction window. *)
val pinball_key :
  program:string -> start:int64 -> length:int64 -> ?seed:int64 -> unit ->
  Store.key

(** A converted region ELFie (same window, plus the warmup mark). *)
val elfie_key :
  program:string ->
  start:int64 ->
  length:int64 ->
  warmup:int64 ->
  ?seed:int64 ->
  unit ->
  Store.key

(** A region measurement record (adds the trial plan). *)
val measurement_key :
  program:string ->
  start:int64 ->
  length:int64 ->
  warmup:int64 ->
  trials:int ->
  base_seed:int64 ->
  Store.key

(** {1 Raw codecs}

    Encoders never fail; decoders return a structured diagnostic on any
    malformed payload (the store quarantines such artifacts as
    ["undecodable"]). *)

val encode_pinball : Elfie_pinball.Pinball.t -> string

val decode_pinball :
  name:string -> string -> (Elfie_pinball.Pinball.t, Elfie_util.Diag.t) result

val encode_bbv : Elfie_pin.Bbv.profile -> string
val decode_bbv : string -> (Elfie_pin.Bbv.profile, Elfie_util.Diag.t) result

val encode_selection : Elfie_simpoint.Simpoint.selection -> string

val decode_selection :
  string -> (Elfie_simpoint.Simpoint.selection, Elfie_util.Diag.t) result

(** An ELFie bundle: the ELF image plus the sysstate needed to install
    its proxy files before a run. *)
val encode_elfie : Elfie_elf.Image.t * Elfie_pin.Sysstate.t -> string

val decode_elfie :
  string ->
  (Elfie_elf.Image.t * Elfie_pin.Sysstate.t, Elfie_util.Diag.t) result

(** One region's native measurement, as stored. *)
type measurement = {
  m_cluster : int;
  m_weight : float;
  m_cpi : float;
  m_stddev : float;
  m_instructions : int64;
  m_trials : int;
  m_failures : int;
}

val encode_measurement : measurement -> string
val decode_measurement : string -> (measurement, Elfie_util.Diag.t) result

(** {1 Cached compute wrappers}

    [cached_* store key f] specialises {!Store.get_or_compute_v} to the
    kind's codec and format version. *)

val cached_bbv :
  ?on_result:([ `Hit | `Miss ] -> unit) ->
  Store.t ->
  Store.key ->
  (unit -> Elfie_pin.Bbv.profile) ->
  Elfie_pin.Bbv.profile

val cached_selection :
  ?on_result:([ `Hit | `Miss ] -> unit) ->
  Store.t ->
  Store.key ->
  (unit -> Elfie_simpoint.Simpoint.selection) ->
  Elfie_simpoint.Simpoint.selection

val cached_pinball :
  ?on_result:([ `Hit | `Miss ] -> unit) ->
  Store.t ->
  Store.key ->
  name:string ->
  (unit -> Elfie_pinball.Pinball.t) ->
  Elfie_pinball.Pinball.t

val cached_elfie :
  ?on_result:([ `Hit | `Miss ] -> unit) ->
  Store.t ->
  Store.key ->
  (unit -> Elfie_elf.Image.t * Elfie_pin.Sysstate.t) ->
  Elfie_elf.Image.t * Elfie_pin.Sysstate.t

val cached_measurement :
  ?on_result:([ `Hit | `Miss ] -> unit) ->
  Store.t ->
  Store.key ->
  (unit -> measurement) ->
  measurement
