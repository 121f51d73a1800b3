module Pinball = Elfie_pinball.Pinball
module Image = Elfie_elf.Image
module Diag = Elfie_util.Diag
module Rng = Elfie_util.Rng

type fault =
  | Bit_flip
  | Truncate
  | Delete_member
  | Corrupt_magic
  | Oversized_count
  | Zero_member
  | Swap_members

let all_faults =
  [ Bit_flip; Truncate; Delete_member; Corrupt_magic; Oversized_count;
    Zero_member; Swap_members ]

let fault_name = function
  | Bit_flip -> "bit-flip"
  | Truncate -> "truncate"
  | Delete_member -> "delete-member"
  | Corrupt_magic -> "corrupt-magic"
  | Oversized_count -> "oversized-count"
  | Zero_member -> "zero-member"
  | Swap_members -> "swap-members"

type outcome =
  | Accepted  (** parsed and passed validation: corruption was benign *)
  | Diagnosed of Diag.t  (** rejected with a structured diagnostic *)
  | Crashed of string  (** any other exception escaped — a harness bug *)

type case = { fault : fault; detail : string; outcome : outcome }

type report = { total : int; accepted : int; diagnosed : int; cases : case list }

let crashes r =
  List.filter (fun c -> match c.outcome with Crashed _ -> true | _ -> false)
    r.cases

(* --- File-set corruption -------------------------------------------------- *)

let pick_member rng files =
  let arr = Array.of_list files in
  arr.(Rng.int rng (Array.length arr))

let map_member files suffix fn =
  List.map (fun (s, c) -> if s = suffix then (s, fn c) else (s, c)) files

let flip_bit rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let off = Rng.int rng (Bytes.length b) in
    let bit = Rng.int rng 8 in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
    Bytes.to_string b
  end

let set_u32 s off v =
  if String.length s < off + 4 then s
  else begin
    let b = Bytes.of_string s in
    Bytes.set_int32_le b off (Int32.of_int v);
    Bytes.to_string b
  end

(* Apply one random instance of [fault] to a pinball file set. Returns
   the corrupted set and a description of what was done. *)
let corrupt_file_set rng fault files =
  match fault with
  | Bit_flip ->
      let suffix, _ = pick_member rng files in
      ( map_member files suffix (flip_bit rng),
        Printf.sprintf "bit flip in %s" suffix )
  | Truncate ->
      let suffix, content = pick_member rng files in
      let keep =
        if String.length content = 0 then 0
        else Rng.int rng (String.length content)
      in
      ( map_member files suffix (fun c -> String.sub c 0 (min keep (String.length c))),
        Printf.sprintf "%s truncated to %d bytes" suffix keep )
  | Delete_member ->
      let suffix, _ = pick_member rng files in
      ( List.remove_assoc suffix files, Printf.sprintf "%s deleted" suffix )
  | Corrupt_magic ->
      let suffix, _ = pick_member rng files in
      ( map_member files suffix (fun c -> set_u32 c 0 0x4641_4b45),
        Printf.sprintf "magic of %s overwritten" suffix )
  | Oversized_count ->
      (* Count fields sit right after the magic in every member; the
         global.log thread count sits after the fat byte. *)
      let candidates = [ ("text", 4); ("inj", 4); ("order", 4); ("global.log", 5) ] in
      let suffix, off = List.nth candidates (Rng.int rng (List.length candidates)) in
      ( map_member files suffix (fun c -> set_u32 c off 0x3fff_fff0),
        Printf.sprintf "count at %s+%d set to 0x3ffffff0" suffix off )
  | Zero_member ->
      let suffix, content = pick_member rng files in
      ( map_member files suffix (fun _ -> String.make (String.length content) '\000'),
        Printf.sprintf "%s zero-filled" suffix )
  | Swap_members ->
      let a = "text" and b = "inj" in
      let ca = List.assoc_opt a files and cb = List.assoc_opt b files in
      ( List.map
          (fun (s, c) ->
            if s = a then (s, Option.value ~default:c cb)
            else if s = b then (s, Option.value ~default:c ca)
            else (s, c))
          files,
        Printf.sprintf "%s and %s contents swapped" a b )

let classify_pinball ~name files =
  match Pinball.of_files_result ~name files with
  | Ok pb -> (
      match Validate.pinball pb with [] -> Accepted | d :: _ -> Diagnosed d)
  | Error d -> Diagnosed d
  | exception e -> Crashed (Printexc.to_string e)

let run_pinball ?(iterations = 20) ?(seed = 0x600DF00DL) (pb : Pinball.t) =
  let rng = Rng.create seed in
  let pristine = Pinball.to_files pb in
  let cases =
    List.concat_map
      (fun fault ->
        List.init iterations (fun _ ->
            let files, detail = corrupt_file_set rng fault pristine in
            { fault; detail; outcome = classify_pinball ~name:pb.name files }))
      all_faults
  in
  let count p = List.length (List.filter p cases) in
  {
    total = List.length cases;
    accepted = count (fun c -> c.outcome = Accepted);
    diagnosed =
      count (fun c -> match c.outcome with Diagnosed _ -> true | _ -> false);
    cases;
  }

(* --- ELF image corruption -------------------------------------------------- *)

(* ELF faults reuse the same fault classes; member-level faults act on
   the single image file. Delete/swap have no file-set analogue here, so
   they degrade to truncation-to-zero and header scrambling. *)
let corrupt_elf rng fault bytes =
  let s = Bytes.to_string bytes in
  let corrupted, detail =
    match fault with
    | Bit_flip -> (flip_bit rng s, "bit flip")
    | Truncate ->
        let keep = if String.length s = 0 then 0 else Rng.int rng (String.length s) in
        (String.sub s 0 keep, Printf.sprintf "truncated to %d bytes" keep)
    | Delete_member -> ("", "file emptied")
    | Corrupt_magic -> (set_u32 s 0 0x4641_4b45, "magic overwritten")
    | Oversized_count ->
        (* e_shoff at offset 40, e_shnum at offset 60. *)
        let which = Rng.int rng 2 in
        if which = 0 then (set_u32 s 40 0x3fff_fff0, "e_shoff oversized")
        else begin
          let b = Bytes.of_string s in
          if Bytes.length b >= 62 then Bytes.set_uint16_le b 60 0xffff;
          (Bytes.to_string b, "e_shnum oversized")
        end
    | Zero_member ->
        let n = min (String.length s) (64 + Rng.int rng 256) in
        (String.make n '\000' ^ String.sub s n (String.length s - n),
         Printf.sprintf "first %d bytes zeroed" n)
    | Swap_members ->
        (* Scramble the section-header table offset to point into data. *)
        (set_u32 s 40 (Rng.int rng (max 1 (String.length s))), "e_shoff scrambled")
  in
  (Bytes.of_string corrupted, detail)

let classify_elf bytes =
  match Image.read_result bytes with
  | Ok image -> (
      match Validate.elf image with [] -> Accepted | d :: _ -> Diagnosed d)
  | Error d -> Diagnosed d
  | exception e -> Crashed (Printexc.to_string e)

let run_elf ?(iterations = 20) ?(seed = 0x600DF00DL) (image : Image.t) =
  let rng = Rng.create seed in
  let pristine = Image.write image in
  let cases =
    List.concat_map
      (fun fault ->
        List.init iterations (fun _ ->
            let bytes, detail = corrupt_elf rng fault (Bytes.copy pristine) in
            { fault; detail; outcome = classify_elf bytes }))
      all_faults
  in
  let count p = List.length (List.filter p cases) in
  {
    total = List.length cases;
    accepted = count (fun c -> c.outcome = Accepted);
    diagnosed =
      count (fun c -> match c.outcome with Diagnosed _ -> true | _ -> false);
    cases;
  }

(* --- Artifact-store corruption sweep ---------------------------------------- *)

module Store = Elfie_farm.Store

type store_fault =
  | Torn_write
  | Header_bit_flip
  | Payload_bit_flip
  | Stale_lock
  | Version_skew

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
  | Store_benign
  | Store_served_corrupt of string
  | Store_crashed of string

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

let run_store ?(iterations = 20) ?(seed = 0x600DF00DL) ~root () =
  let rng = Rng.create seed in
  let store = Store.open_store ~producer:"fault-sweep" root in
  let case_id = ref 0 in
  (* Each case gets a fresh key and a fixed-length pseudo-random payload,
     seeds the store with it, corrupts the committed file, then re-reads
     through [get_or_compute]. The served value must always equal the
     payload; whether a quarantine + recompute is required depends on
     what the corruption hit. *)
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
      Store.get_or_compute store key ~format:1 (fun () -> payload)
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
        Store.get_or_compute store key ~format:1 (fun () ->
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

(* --- Execution-hang injection --------------------------------------------- *)

let hang_elfie ?(options = Elfie_core.Pinball2elf.default_options) pb =
  let spin b =
    let loop = Elfie_isa.Builder.here ~name:"hang" b in
    Elfie_isa.Builder.ins b Elfie_isa.Insn.Pause;
    Elfie_isa.Builder.jmp b loop
  in
  Elfie_core.Pinball2elf.convert
    ~options:{ options with Elfie_core.Pinball2elf.extra_on_exit = Some spin }
    pb

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%d fault(s): %d diagnosed, %d benign, %d crashed@,"
    r.total r.diagnosed r.accepted
    (List.length (crashes r));
  List.iter
    (fun c ->
      match c.outcome with
      | Crashed msg ->
          Format.fprintf fmt "  CRASH %-16s %s: %s@," (fault_name c.fault)
            c.detail msg
      | _ -> ())
    r.cases;
  Format.fprintf fmt "@]"
