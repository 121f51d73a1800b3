module Metrics = Elfie_obs.Metrics
module Trace = Elfie_obs.Trace

type kind = Pinball | Bbv | Simpoint | Elfie | Measurement

let all_kinds = [ Pinball; Bbv; Simpoint; Elfie; Measurement ]

let kind_name = function
  | Pinball -> "pinball"
  | Bbv -> "bbv"
  | Simpoint -> "simpoint"
  | Elfie -> "elfie"
  | Measurement -> "measurement"

type key = { kind : kind; key_digest : string }

(* Percent-escape the characters that carry structure in the normalized
   parameter string (and '%' itself), so no parameter value can alias
   another parameter list. *)
let escape_param s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '=' -> Buffer.add_string buf "%3D"
      | '&' -> Buffer.add_string buf "%26"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let normalize_params params =
  List.map (fun (k, v) -> (escape_param k, escape_param v)) params
  |> List.sort compare
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat "&"

let key kind ~program params =
  (* The program contributes through its own digest, so keys stay cheap
     to compare/log and the program bytes never appear in paths. *)
  let material =
    String.concat "\x00"
      [ kind_name kind; Digest.to_hex (Digest.string program);
        normalize_params params ]
  in
  { kind; key_digest = Digest.to_hex (Digest.string material) }

let digest k = k.key_digest

(* --- metrics ---------------------------------------------------------------- *)

let m_hits =
  Metrics.counter "elfie_store_hits_total"
    ~help:"Artifact-store reads served from a verified cached artifact"

let m_misses =
  Metrics.counter "elfie_store_misses_total"
    ~help:"Artifact-store reads that found no (valid) cached artifact"

let m_writes =
  Metrics.counter "elfie_store_writes_total"
    ~help:"Artifacts committed (write-to-temp + fsync + atomic rename)"

let m_quarantines =
  Metrics.counter "elfie_store_quarantines_total"
    ~help:
      "Corrupt artifacts moved to quarantine on failed read verification"

let m_evictions =
  Metrics.counter "elfie_store_evictions_total"
    ~help:"Artifacts removed by size-bounded eviction"

let m_lock_breaks =
  Metrics.counter "elfie_store_lock_breaks_total"
    ~help:"Stale per-key advisory locks broken (dead or hung owner)"

let m_lock_waits =
  Metrics.counter "elfie_store_lock_waits_total"
    ~help:"Times a reader waited on another driver holding a key lock"

(* --- handle ----------------------------------------------------------------- *)

type quarantine = {
  q_digest : string;
  q_kind : string;
  q_reason : string;
  q_moved_to : string;
}

type t = {
  store_root : string;
  producer : string;
  mutable quarantined : quarantine list;  (** newest first *)
  lock : Mutex.t;  (** guards [quarantined] across pool domains *)
}

let root t = t.store_root

let mkdir_p path =
  let rec mk path =
    if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
      mk (Filename.dirname path);
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk path

let quarantine_dir t = Filename.concat t.store_root "quarantine"
let quarantine_log_path t = Filename.concat (quarantine_dir t) "log"

let open_store ?producer store_root =
  let producer =
    match producer with
    | Some p -> p
    | None -> Printf.sprintf "elfie/%d" (Unix.getpid ())
  in
  mkdir_p store_root;
  List.iter
    (fun k -> mkdir_p (Filename.concat store_root (kind_name k)))
    all_kinds;
  mkdir_p (Filename.concat store_root "quarantine");
  { store_root; producer; quarantined = []; lock = Mutex.create () }

let quarantines t = Mutex.protect t.lock (fun () -> List.rev t.quarantined)

let path_of t k =
  Filename.concat
    (Filename.concat t.store_root (kind_name k.kind))
    (k.key_digest ^ ".art")

let lock_path_of t k = path_of t k ^ ".lock"

(* --- durable file primitives ------------------------------------------------ *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let tmp_counter = Atomic.make 0

(* Write [contents] at [path] via temp file + fsync + atomic rename, then
   fsync the directory so the rename itself survives a crash. *)
let write_atomic path contents =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc contents;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- self-describing artifact format ---------------------------------------- *)

let magic_word = "ELFIESTORE"
let store_version = 1

let sanitize_meta s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let render t k ~format payload =
  let buf = Buffer.create (String.length payload + 256) in
  Buffer.add_string buf
    (Printf.sprintf "%s %d\n" magic_word store_version);
  Buffer.add_string buf (Printf.sprintf "kind %s\n" (kind_name k.kind));
  Buffer.add_string buf (Printf.sprintf "format %d\n" format);
  Buffer.add_string buf (Printf.sprintf "key %s\n" k.key_digest);
  Buffer.add_string buf
    (Printf.sprintf "producer %s\n" (sanitize_meta t.producer));
  Buffer.add_string buf
    (Printf.sprintf "length %d\n" (String.length payload));
  Buffer.add_string buf
    (Printf.sprintf "checksum %s\n" (Digest.to_hex (Digest.string payload)));
  Buffer.add_char buf '\n';
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Verification verdict for a file's bytes against an expected key and
   payload format. *)
type verdict = Valid of string | Invalid of string (* quarantine reason *)

let header_field lines name =
  List.find_map
    (fun line ->
      let prefix = name ^ " " in
      if String.length line > String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then Some (String.sub line (String.length prefix)
                   (String.length line - String.length prefix))
      else None)
    lines

let verify k ~format contents =
  (* The header ends at the first blank line; a file truncated before
     that is torn by construction. *)
  let header_end =
    let n = String.length contents in
    let rec find i =
      if i + 1 >= n then None
      else if contents.[i] = '\n' && contents.[i + 1] = '\n' then Some i
      else find (i + 1)
    in
    find 0
  in
  match header_end with
  | None -> Invalid "torn"
  | Some he -> (
      let header = String.sub contents 0 he in
      let payload =
        String.sub contents (he + 2) (String.length contents - he - 2)
      in
      match String.split_on_char '\n' header with
      | [] -> Invalid "bad-header"
      | magic_line :: fields -> (
          match String.split_on_char ' ' magic_line with
          | [ w; v ] when w = magic_word ->
              if v <> string_of_int store_version then Invalid "version-skew"
              else begin
                match
                  ( header_field fields "kind",
                    header_field fields "format",
                    header_field fields "key",
                    header_field fields "length",
                    header_field fields "checksum" )
                with
                | Some hkind, Some hformat, Some hkey, Some hlen, Some hsum ->
                    if hkind <> kind_name k.kind || hkey <> k.key_digest then
                      Invalid "key-mismatch"
                    else if hformat <> string_of_int format then
                      Invalid "format-skew"
                    else if
                      int_of_string_opt hlen
                      <> Some (String.length payload)
                    then Invalid "torn"
                    else if Digest.to_hex (Digest.string payload) <> hsum then
                      Invalid "checksum-mismatch"
                    else Valid payload
                | _ -> Invalid "bad-header"
              end
          | _ -> Invalid "bad-header"))

(* --- quarantine ------------------------------------------------------------- *)

let log_lock = Mutex.create ()

let append_quarantine_log t q =
  Mutex.protect log_lock @@ fun () ->
  let oc =
    open_out_gen
      [ Open_append; Open_creat; Open_binary ]
      0o644 (quarantine_log_path t)
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "Q1\t%s\t%s\t%s\t%s\n" q.q_digest q.q_kind q.q_reason
        (Filename.basename q.q_moved_to);
      flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ())

let read_quarantine_log t =
  let path = quarantine_log_path t in
  if not (Sys.file_exists path) then []
  else
    String.split_on_char '\n' (read_file path)
    |> List.filter_map (fun line ->
           match String.split_on_char '\t' line with
           | [ "Q1"; q_digest; q_kind; q_reason; base ] ->
               Some
                 {
                   q_digest;
                   q_kind;
                   q_reason;
                   q_moved_to = Filename.concat (quarantine_dir t) base;
                 }
           | _ -> None)

let quarantine_counter = Atomic.make 0

(* Move a condemned file aside — never delete it — and record the
   degradation in the handle, the persistent log and the metrics. *)
let quarantine t k ~reason =
  let src = path_of t k in
  let dest =
    Filename.concat (quarantine_dir t)
      (Printf.sprintf "%s.%s.%d.%d" k.key_digest reason (Unix.getpid ())
         (Atomic.fetch_and_add quarantine_counter 1))
  in
  (match Sys.rename src dest with
  | () -> ()
  | exception Sys_error _ ->
      (* Lost a race with a concurrent quarantine of the same file; the
         record below still documents this handle's observation. *)
      ());
  let q =
    { q_digest = k.key_digest; q_kind = kind_name k.kind; q_reason = reason;
      q_moved_to = dest }
  in
  Mutex.protect t.lock (fun () -> t.quarantined <- q :: t.quarantined);
  append_quarantine_log t q;
  Metrics.inc m_quarantines
    ~labels:[ ("kind", kind_name k.kind); ("reason", reason) ];
  Trace.instant "farm.store.quarantine"
    ~attrs:
      [ ("kind", Trace.S (kind_name k.kind)); ("reason", Trace.S reason);
        ("key", Trace.S k.key_digest) ]

(* --- read / write ----------------------------------------------------------- *)

let kind_labels k = [ ("kind", kind_name k.kind) ]

let put t k ~format payload =
  write_atomic (path_of t k) (render t k ~format payload);
  Metrics.inc m_writes ~labels:(kind_labels k)

(* Uncounted lookup shared by [get] and the lock-wait polling loop. *)
let lookup t k ~format =
  let path = path_of t k in
  match read_file path with
  | exception Sys_error _ -> `Miss
  | contents -> (
      match verify k ~format contents with
      | Valid payload -> `Hit payload
      | Invalid reason ->
          quarantine t k ~reason;
          `Quarantined reason)

let get t k ~format =
  match lookup t k ~format with
  | `Hit payload ->
      Metrics.inc m_hits ~labels:(kind_labels k);
      Some payload
  | `Miss | `Quarantined _ ->
      Metrics.inc m_misses ~labels:(kind_labels k);
      None

(* Presence only — verification (and any quarantining) happens on read. *)
let mem t k = Sys.file_exists (path_of t k)

(* --- advisory per-key locks ------------------------------------------------- *)

(* Seconds after which a lock held by a live process is presumed
   abandoned (hung owner) and may be broken. *)
let lock_stale_s = 60.0

(* Tokens of locks currently held by this process: a lock file naming
   our own pid but an unknown token is a leftover from a previous
   process with a recycled pid (or a killed domain) and is stale. *)
let live_tokens : (string, unit) Hashtbl.t = Hashtbl.create 16
let tokens_lock = Mutex.create ()
let token_counter = Atomic.make 0

let new_token () =
  Printf.sprintf "%d.%d" (Unix.getpid ())
    (Atomic.fetch_and_add token_counter 1)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: alive, other user *)

type lock_state = Acquired of string | Held_live | Stale

(* Judge an existing lock file's content: [Stale] when its owner is
   provably gone (dead pid, recycled pid / dead domain, torn content
   past the write window) or has outlived the hung-owner deadline. *)
let judge path content =
  let age () =
    match Unix.stat path with
    | st -> Unix.gettimeofday () -. st.Unix.st_mtime
    | exception Unix.Unix_error _ -> 0.0
  in
  match
    String.split_on_char ' '
      (String.trim
         (match String.index_opt content '\n' with
         | Some i -> String.sub content 0 i
         | None -> content))
  with
  | [ "ELFIELOCK"; pid; token ] -> (
      match int_of_string_opt pid with
      | None -> Stale (* corrupt lock file *)
      | Some pid ->
          if not (pid_alive pid) then Stale
          else if
            pid = Unix.getpid ()
            && not
                 (Mutex.protect tokens_lock (fun () ->
                      Hashtbl.mem live_tokens token))
          then Stale (* recycled pid or dead domain *)
          else if age () > lock_stale_s then Stale
          else Held_live)
  | _ ->
      (* Torn or foreign lock content: treat as stale once it has any
         age at all; a writer finishes its one-line write well within
         this window. *)
      if age () > 0.5 then Stale else Held_live

let try_acquire path =
  (* Register the token as live BEFORE the lock file becomes visible:
     a sibling domain that reads the fresh lock must find the token in
     [live_tokens], or it would misjudge its own process's lock as a
     recycled-pid leftover and break it. *)
  let token = new_token () in
  Mutex.protect tokens_lock (fun () -> Hashtbl.replace live_tokens token ());
  match
    Unix.openfile path [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644
  with
  | fd ->
      let line =
        Printf.sprintf "ELFIELOCK %d %s\n" (Unix.getpid ()) token
      in
      let b = Bytes.of_string line in
      ignore (Unix.write fd b 0 (Bytes.length b));
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd;
      Acquired token
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
      Mutex.protect tokens_lock (fun () -> Hashtbl.remove live_tokens token);
      (* Somebody holds (or held) the lock: judge staleness from its
         content and age. A vanished file means the owner just released
         — retry from the top. *)
      match read_file path with
      | exception Sys_error _ -> Stale (* racing release; retry cheaply *)
      | content -> judge path content)

let release path token =
  Mutex.protect tokens_lock (fun () -> Hashtbl.remove live_tokens token);
  try Sys.remove path with Sys_error _ -> ()

(* Breaking serializes on a process-global mutex and re-judges the lock
   content immediately before unlinking: between a caller's Stale
   verdict and its break, another domain may have broken the same lock
   and re-acquired it — unlinking blindly would steal the fresh live
   lock and let two computations run. *)
let break_mutex = Mutex.create ()

let break_lock path =
  Mutex.protect break_mutex @@ fun () ->
  match read_file path with
  | exception Sys_error _ -> () (* already broken or released *)
  | content ->
      if judge path content = Stale then begin
        Metrics.inc m_lock_breaks;
        try Sys.remove path with Sys_error _ -> ()
      end

(* --- get_or_compute --------------------------------------------------------- *)

let get_or_compute_v ?(on_result = fun _ -> ()) t k ~format ~encode ~decode
    compute =
  let serve_payload payload =
    match decode payload with
    | Ok v ->
        Metrics.inc m_hits ~labels:(kind_labels k);
        on_result `Hit;
        Some v
    | Error _ ->
        (* The checksum verified but the codec rejects the payload: a
           skew the header missed. Same contract — quarantine, miss. *)
        quarantine t k ~reason:"undecodable";
        None
  in
  let compute_and_put () =
    Metrics.inc m_misses ~labels:(kind_labels k);
    on_result `Miss;
    let v =
      Trace.with_span "farm.store.compute"
        ~attrs:
          [ ("kind", Trace.S (kind_name k.kind));
            ("key", Trace.S k.key_digest) ]
        (fun _ -> compute ())
    in
    put t k ~format (encode v);
    v
  in
  let first =
    match lookup t k ~format with `Hit p -> serve_payload p | _ -> None
  in
  match first with
  | Some v -> v
  | None -> (
      let lock_path = lock_path_of t k in
      (* Acquire the key lock, waiting on live owners. While waiting,
         poll for the owner's commit: if it lands, serve it without ever
         taking the lock. *)
      let rec obtain waited =
        match try_acquire lock_path with
        | Acquired token -> `Locked token
        | Stale ->
            break_lock lock_path;
            obtain waited
        | Held_live -> (
            if not waited then Metrics.inc m_lock_waits;
            match lookup t k ~format with
            | `Hit p -> `Published p
            | `Miss | `Quarantined _ ->
                Unix.sleepf 0.002;
                obtain true)
      in
      match obtain false with
      | `Published p -> (
          match serve_payload p with
          | Some v -> v
          | None -> (
              (* Published but undecodable: fall through to computing
                 under the lock. *)
              let rec relock () =
                match try_acquire lock_path with
                | Acquired token -> token
                | Stale -> break_lock lock_path; relock ()
                | Held_live -> Unix.sleepf 0.002; relock ()
              in
              let token = relock () in
              Fun.protect
                ~finally:(fun () -> release lock_path token)
                (fun () -> compute_and_put ())))
      | `Locked token ->
          Fun.protect
            ~finally:(fun () -> release lock_path token)
            (fun () ->
              (* Double-check under the lock: the previous holder may
                 have committed between our miss and our acquire. *)
              match lookup t k ~format with
              | `Hit p -> (
                  match serve_payload p with
                  | Some v -> v
                  | None -> compute_and_put ())
              | `Miss | `Quarantined _ -> compute_and_put ()))

let get_or_compute ?on_result t k ~format compute =
  get_or_compute_v ?on_result t k ~format ~encode:Fun.id
    ~decode:(fun s -> Ok s)
    compute

(* --- accounting and eviction ------------------------------------------------ *)

let is_artifact name = Filename.check_suffix name ".art"

let live_files t =
  List.concat_map
    (fun kind ->
      let dir = Filename.concat t.store_root (kind_name kind) in
      match Sys.readdir dir with
      | exception Sys_error _ -> []
      | names ->
          Array.to_list names
          |> List.filter is_artifact
          |> List.filter_map (fun name ->
                 let path = Filename.concat dir name in
                 match Unix.stat path with
                 | st -> Some (kind, path, st)
                 | exception Unix.Unix_error _ -> None))
    all_kinds

let size_bytes t =
  List.fold_left
    (fun acc (_, _, st) -> Int64.add acc (Int64.of_int st.Unix.st_size))
    0L (live_files t)

let artifact_count t kind =
  List.length (List.filter (fun (k, _, _) -> k = kind) (live_files t))

type eviction = {
  ev_kind : kind;
  ev_digest : string;
  ev_path : string;
  ev_bytes : int;
}

(* Deterministic eviction order: ascending mtime, then kind name, then
   digest — so two stores with identical contents always agree on what
   goes first, and [gc --dry-run] predicts [gc] exactly. *)
let eviction_plan t ~max_bytes =
  let files =
    live_files t
    |> List.sort (fun (ka, pa, sa) (kb, pb, sb) ->
           match compare sa.Unix.st_mtime sb.Unix.st_mtime with
           | 0 -> (
               match compare (kind_name ka) (kind_name kb) with
               | 0 -> compare (Filename.basename pa) (Filename.basename pb)
               | c -> c)
           | c -> c)
  in
  let total =
    List.fold_left
      (fun acc (_, _, st) -> Int64.add acc (Int64.of_int st.Unix.st_size))
      0L files
  in
  let rec plan files total acc =
    if total <= max_bytes then List.rev acc
    else
      match files with
      | [] -> List.rev acc
      | (kind, path, st) :: rest ->
          let ev =
            {
              ev_kind = kind;
              ev_digest = Filename.remove_extension (Filename.basename path);
              ev_path = path;
              ev_bytes = st.Unix.st_size;
            }
          in
          plan rest
            (Int64.sub total (Int64.of_int st.Unix.st_size))
            (ev :: acc)
  in
  plan files total []

let evict t ~max_bytes =
  List.fold_left
    (fun removed ev ->
      match Sys.remove ev.ev_path with
      | () ->
          Metrics.inc m_evictions ~labels:[ ("kind", kind_name ev.ev_kind) ];
          removed + 1
      | exception Sys_error _ -> removed)
    0
    (eviction_plan t ~max_bytes)

let quarantine_stats t =
  let dir = quarantine_dir t in
  let count, bytes =
    match Sys.readdir dir with
    | exception Sys_error _ -> (0, 0L)
    | names ->
        Array.fold_left
          (fun (n, b) name ->
            if name = "log" then (n, b)
            else
              match Unix.stat (Filename.concat dir name) with
              | st -> (n + 1, Int64.add b (Int64.of_int st.Unix.st_size))
              | exception Unix.Unix_error _ -> (n, b))
          (0, 0L) names
  in
  let tally = Hashtbl.create 8 in
  List.iter
    (fun q ->
      let n = try Hashtbl.find tally q.q_reason with Not_found -> 0 in
      Hashtbl.replace tally q.q_reason (n + 1))
    (read_quarantine_log t);
  let reasons =
    Hashtbl.fold (fun reason n acc -> (reason, n) :: acc) tally []
    |> List.sort (fun (ra, na) (rb, nb) ->
           match compare nb na with 0 -> compare ra rb | c -> c)
  in
  (count, bytes, reasons)
