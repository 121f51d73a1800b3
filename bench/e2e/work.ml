(* What every workload hands back to run.ml. *)

type size = Smoke | Full

(* The outcome of one pass over a workload's programs. [digest] is the
   MD5 of a canonical rendering of everything the pass simulated or
   measured; two passes over the same inputs must agree on it. *)
type pass = {
  latencies : float list;  (** wall seconds of each program, in program order *)
  digest : string;
  attempted : int;  (** operations tried; what an operation is is per workload *)
  failed : int;  (** operations that produced no result *)
  coverage : float;  (** fraction of the work whose ELFie or simulation completed *)
  work : (string * float) list;
      (** bench-side counts the per-layer rates divide by (instructions
          run natively, regions converted, ...) *)
  info : (string * float) list;
      (** accuracy figures: deterministic for a seed, printed for people
          and folded into [digest], but not timed *)
}

type instance = {
  inputs_digest : string;  (** generated specs and program images *)
  run_pass : jobs:int -> pass;
  probe : unit -> (string * float) list;
      (** traced runs only, after the last pass and outside its wall
          time: re-run stages the library has no span for, under
          bench-side spans; returns counts like [work] *)
}

type t = {
  name : string;
  setup : size -> seed:int -> instance;
}

(* Canonical renderings: floats in hex so the digest sees every bit. *)
let add_f b x = Printf.bprintf b "%h;" x
let add_i64 b x = Printf.bprintf b "%Ld;" x
let add_s b s = Printf.bprintf b "%d:%s;" (String.length s) s
let hex_md5 s = Digest.to_hex (Digest.string s)

(* A bench-side span around a call into a public library function, for
   stages the library emits no span of its own for. *)
let span name f = Elfie_obs.Trace.with_span name (fun _ -> f ())

(* One task per program on the pool, returning the results and each
   program's wall-clock latency, in program order. Each task is also a
   [bench.program] span so the traced run can tell program busy time
   from pool idle time. *)
let per_program ~jobs f programs =
  Elfie_util.Pool.map ~jobs
    (fun p ->
      let t0 = Unix.gettimeofday () in
      let r = span "bench.program" (fun () -> f p) in
      (r, Unix.gettimeofday () -. t0))
    programs
  |> List.split

(* The set-up every workload shares: generate the specs, build their
   run specs (images included), and digest the spec renderings and image
   bytes, the part of the set-up the output check covers. *)
let generate shape ~seed =
  let specs = Gen.specs ~seed shape in
  let run_specs = List.map (fun s -> Elfie_workloads.Programs.run_spec s) specs in
  let b = Buffer.create 4096 in
  List.iter2
    (fun s (rs : Elfie_pin.Run.spec) ->
      add_s b (Gen.describe s);
      add_s b (hex_md5 (Bytes.unsafe_to_string (Elfie_elf.Image.write rs.image))))
    specs run_specs;
  (specs, run_specs, hex_md5 (Buffer.contents b))

(* The digest a run checks: inputs and pass outputs together. *)
let digest inst pass = hex_md5 (inst.inputs_digest ^ pass.digest)

let size_name = function Smoke -> "smoke" | Full -> "full"

(* Committed digests, [workload size seed md5] per line of
   [expected_digests] (compiled in as [Expected.text]). *)
let expected ~workload ~size ~seed =
  String.split_on_char '\n' Expected.text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; s; n; d ]
           when w = workload && s = size_name size && n = string_of_int seed ->
             Some d
         | _ -> None)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sum_i f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let mean f xs =
  match xs with [] -> 0.0 | _ -> sum f xs /. float_of_int (List.length xs)
