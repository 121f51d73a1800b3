(* Corruption sweep over the farm's content-addressed store. Every store
   fault must degrade to a cache miss — the corrupt file quarantined
   (moved aside, never deleted, recorded as a degradation) and the
   artifact recomputed — and the value served must be bit-identical to
   a fresh computation. No fault may crash, hang, or be served as-is
   with corrupted payload. *)

module Store = Elfie_farm.Store
module Rng = Elfie_util.Rng

type store_fault =
  | Torn_write  (** the committed file truncated at {e every} byte boundary *)
  | Header_bit_flip  (** one bit flipped inside the self-describing header *)
  | Payload_bit_flip  (** one bit flipped inside the payload *)
  | Stale_lock
      (** a per-key lock file left behind by a dead process (and a
          torn, contentless lock) *)
  | Version_skew
      (** store header version / payload format version rewritten *)

let all_store_faults =
  [ Torn_write; Header_bit_flip; Payload_bit_flip; Stale_lock; Version_skew ]

let store_fault_name = function
  | Torn_write -> "torn-write"
  | Header_bit_flip -> "header-bit-flip"
  | Payload_bit_flip -> "payload-bit-flip"
  | Stale_lock -> "stale-lock"
  | Version_skew -> "version-skew"

type store_outcome =
  | Store_recovered
      (** quarantined + recomputed; the served value matched *)
  | Store_benign
      (** the fault did not invalidate the artifact (e.g. a bit flip in
          free-form producer metadata); the cached payload was served
          intact *)
  | Store_served_corrupt of string
      (** the store returned a value different from a fresh computation
          — silent corruption, the one forbidden outcome *)
  | Store_crashed of string  (** an exception escaped the store *)

type store_case = {
  sfault : store_fault;
  sdetail : string;
  soutcome : store_outcome;
}

type store_report = {
  s_total : int;
  s_recovered : int;
  s_benign : int;
  s_cases : store_case list;
}

(* Cases that crashed or served corrupt data; a robust store yields []. *)
let store_failures r =
  List.filter
    (fun c ->
      match c.soutcome with
      | Store_served_corrupt _ | Store_crashed _ -> true
      | Store_recovered | Store_benign -> false)
    r.s_cases

(* A pid guaranteed dead: fork a child that exits immediately and reap
   it. Evaluated lazily (and before any domains spawn in the suites that
   use this sweep). *)
let dead_pid =
  lazy
    (match Unix.fork () with
    | 0 -> Unix._exit 0
    | pid ->
        ignore (Unix.waitpid [] pid);
        pid)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let replace_once ~from ~into s =
  match
    let fl = String.length from in
    let rec find i =
      if i + fl > String.length s then None
      else if String.sub s i fl = from then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ into
      ^ String.sub s (i + String.length from)
          (String.length s - i - String.length from)

(* Run the sweep against a fresh store rooted at [root] (created if
   needed; the directory afterwards holds the quarantined corpses for
   inspection). Deterministic for a given [seed]. *)
let run_store ?(iterations = 20) ?(seed = 0x600DF00DL) ~root () =
  let rng = Rng.create seed in
  let store = Store.open_store ~producer:"fault-sweep" root in
  let case_id = ref 0 in
  (* Each case gets a fresh key and a fixed-length pseudo-random payload,
     seeds the store with it, corrupts the committed file, then re-reads
     through [Store.get_or_compute_v]. The served value must always
     equal the payload; whether a quarantine + recompute is required
     depends on what the corruption hit. *)
  let seeded () =
    incr case_id;
    let payload =
      String.init 96 (fun _ -> Char.chr (Rng.int rng 256))
    in
    let key =
      Store.key Store.Measurement ~program:"store-fault-program"
        [ ("case", string_of_int !case_id) ]
    in
    let (_ : string) =
      Store.get_or_compute_v store key ~format:1 ~encode:Fun.id
        ~decode:Result.ok (fun () -> payload)
    in
    (key, payload, Store.path_of store key)
  in
  let classify ~payload ~recomputed ~quarantine_delta ~lock_case result =
    match result with
    | Error msg -> Store_crashed msg
    | Ok v when v <> payload ->
        Store_served_corrupt "served bytes differ from a fresh computation"
    | Ok _ when recomputed ->
        if lock_case || quarantine_delta > 0 then Store_recovered
        else Store_crashed "recomputed without a quarantine record"
    | Ok _ -> Store_benign
  in
  let exercise ?(lock_case = false) key payload sdetail sfault =
    let recomputed = ref false in
    let q0 = List.length (Store.quarantines store) in
    let result =
      match
        Store.get_or_compute_v store key ~format:1 ~encode:Fun.id
          ~decode:Result.ok (fun () ->
            recomputed := true;
            payload)
      with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e)
    in
    let q1 = List.length (Store.quarantines store) in
    {
      sfault;
      sdetail;
      soutcome =
        classify ~payload ~recomputed:!recomputed
          ~quarantine_delta:(q1 - q0) ~lock_case result;
    }
  in
  let torn_cases () =
    (* Truncate the committed file at every byte boundary, including the
       empty file; the full-length "truncation" is the benign identity. *)
    let key0, payload0, path0 = seeded () in
    let pristine = read_raw path0 in
    List.init (String.length pristine) (fun cut ->
        let key, payload, path =
          if cut = 0 then (key0, payload0, path0) else seeded ()
        in
        write_raw path (String.sub pristine 0 cut);
        exercise key payload
          (Printf.sprintf "file truncated to %d of %d bytes" cut
             (String.length pristine))
          Torn_write)
  in
  let bit_flip_cases fault =
    List.init iterations (fun _ ->
        let key, payload, path = seeded () in
        let pristine = read_raw path in
        let header_len =
          let rec find i =
            if i + 1 >= String.length pristine then String.length pristine
            else if pristine.[i] = '\n' && pristine.[i + 1] = '\n' then i + 2
            else find (i + 1)
          in
          find 0
        in
        let lo, span =
          match fault with
          | Header_bit_flip -> (0, header_len)
          | _ -> (header_len, String.length pristine - header_len)
        in
        let off = lo + Rng.int rng (max 1 span) in
        let bit = Rng.int rng 8 in
        let b = Bytes.of_string pristine in
        Bytes.set b off
          (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
        write_raw path (Bytes.to_string b);
        exercise key payload
          (Printf.sprintf "bit %d at offset %d flipped (%s)" bit off
             (if off < header_len then "header" else "payload"))
          fault)
  in
  let version_skew_cases () =
    List.map
      (fun (from, into, what) ->
        let key, payload, path = seeded () in
        write_raw path (replace_once ~from ~into (read_raw path));
        exercise key payload what Version_skew)
      [
        ("ELFIESTORE 1\n", "ELFIESTORE 2\n", "store header version bumped");
        ("\nformat 1\n", "\nformat 9\n", "payload format version bumped");
      ]
  in
  let stale_lock_cases () =
    let lock_with content path = write_raw path content in
    [
      (* A dead process's lock with no committed artifact: the lock must
         be broken and the computation performed. *)
      (let key, payload, path = seeded () in
       Sys.remove path;
       lock_with
         (Printf.sprintf "ELFIELOCK %d stale.0\n" (Lazy.force dead_pid))
         (Store.lock_path_of store key);
       let case = exercise ~lock_case:true key payload "dead-pid lock, no artifact" Stale_lock in
       if Sys.file_exists (Store.lock_path_of store key) then
         { case with soutcome = Store_crashed "stale lock not cleaned up" }
       else case);
      (* A dead process's lock with the artifact committed: the read path
         never needs the lock; the cached value must be served. *)
      (let key, payload, _ = seeded () in
       lock_with
         (Printf.sprintf "ELFIELOCK %d stale.1\n" (Lazy.force dead_pid))
         (Store.lock_path_of store key);
       let case = exercise ~lock_case:true key payload "dead-pid lock, artifact present" Stale_lock in
       (try Sys.remove (Store.lock_path_of store key) with Sys_error _ -> ());
       case);
      (* A torn (contentless) lock, backdated past the write window: the
         writer died between creating and filling it. *)
      (let key, payload, path = seeded () in
       Sys.remove path;
       let lock = Store.lock_path_of store key in
       lock_with "" lock;
       (try Unix.utimes lock 1.0 1.0 with Unix.Unix_error _ -> ());
       exercise ~lock_case:true key payload "torn empty lock, backdated"
         Stale_lock);
    ]
  in
  let s_cases =
    torn_cases ()
    @ bit_flip_cases Header_bit_flip
    @ bit_flip_cases Payload_bit_flip
    @ stale_lock_cases ()
    @ version_skew_cases ()
  in
  let count p = List.length (List.filter p s_cases) in
  {
    s_total = List.length s_cases;
    s_recovered = count (fun c -> c.soutcome = Store_recovered);
    s_benign = count (fun c -> c.soutcome = Store_benign);
    s_cases;
  }

let pp_store_report fmt r =
  Format.fprintf fmt
    "@[<v>%d store fault(s): %d quarantined+recomputed, %d benign, %d \
     failed@,"
    r.s_total r.s_recovered r.s_benign
    (List.length (store_failures r));
  List.iter
    (fun c ->
      match c.soutcome with
      | Store_served_corrupt msg ->
          Format.fprintf fmt "  CORRUPT %-16s %s: %s@,"
            (store_fault_name c.sfault) c.sdetail msg
      | Store_crashed msg ->
          Format.fprintf fmt "  CRASH %-16s %s: %s@,"
            (store_fault_name c.sfault) c.sdetail msg
      | _ -> ())
    r.s_cases;
  Format.fprintf fmt "@]"
