(* Export lint (dune alias @exports-lint, also part of the default test
   run): every `val` of a lib/**/*.mli must be named outside its own
   module in a .ml file under lib/, bin/, bench/ or examples/, or be
   listed in the allowlist with a one-line reason. An allowlisted name
   that has gained such a caller, or that no .mli declares any more,
   fails too, so the list cannot go stale.

   A use is `M.name`, where M is the module, or an alias bound by
   `module A = ….M` in the same file; or a bare `name` in a file that
   opens M (`open ….M`, `let open ….M in`, `M.( … )`). Comments and
   string literals are skipped. Nested signatures (`module P : sig … end`)
   declare `Outer.P.name`, used as `P.name`. Since a use names only the
   innermost module, two .mli files that declare the same `M.name` fail
   the lint.

   Usage: exports_lint.exe ROOT ALLOWLIST
   (ROOT holds lib/, bin/, bench/ and examples/.) *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec files_with suffix dir =
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.sort compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then files_with suffix path
           else if Filename.check_suffix entry suffix then [ path ]
           else [])

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* --- Tokens --------------------------------------------------------- *)

let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* A token is a dotted path of identifiers ("Elfie_pin.Tools.run"), or
   one punctuation character. Comments, string and character literals
   produce no tokens. *)
let tokens source =
  let n = String.length source in
  let out = ref [] in
  let rec skip_comment i depth =
    if i >= n then n
    else if i + 1 < n && source.[i] = '(' && source.[i + 1] = '*' then
      skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && source.[i] = '*' && source.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if source.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else if i + 2 < n && source.[i] = '\'' && source.[i + 2] = '\'' then
      skip_comment (i + 3) depth
    else skip_comment (i + 1) depth
  and skip_string i =
    if i >= n then n
    else if source.[i] = '\\' then skip_string (i + 2)
    else if source.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  (* `{id|…|id}` quoted strings. *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && (source.[!j] = '_' || ('a' <= source.[!j] && source.[!j] <= 'z'))
    do
      incr j
    done;
    if !j < n && source.[!j] = '|' then begin
      let id = String.sub source (i + 1) (!j - i - 1) in
      let close = "|" ^ id ^ "}" in
      let cl = String.length close in
      let k = ref (!j + 1) in
      while !k + cl <= n && String.sub source !k cl <> close do
        incr k
      done;
      Some (min n (!k + cl))
    end
    else None
  in
  let rec go i =
    if i >= n then ()
    else
      let c = source.[i] in
      if c = '(' && i + 1 < n && source.[i + 1] = '*' then
        go (skip_comment (i + 2) 1)
      else if c = '"' then go (skip_string (i + 1))
      else if c = '{' then (
        match quoted_string i with
        | Some j -> go j
        | None ->
            out := "{" :: !out;
            go (i + 1))
      else if c = '\'' then
        (* A character literal, or a type variable (whose name then
           reads as an identifier, harmlessly). *)
        if i + 2 < n && source.[i + 1] = '\\' then
          match String.index_from_opt source (i + 2) '\'' with
          | Some j -> go (j + 1)
          | None -> ()
        else if i + 2 < n && source.[i + 2] = '\'' then go (i + 3)
        else go (i + 1)
      else if is_ident_start c then begin
        let j = ref i in
        let continue = ref true in
        while !continue do
          while !j < n && is_ident_char source.[!j] do
            incr j
          done;
          if !j + 1 < n && source.[!j] = '.' && is_ident_start source.[!j + 1] then
            incr j
          else continue := false
        done;
        out := String.sub source i (!j - i) :: !out;
        go !j
      end
      else begin
        if c <> ' ' && c <> '\n' && c <> '\t' && c <> '\r' then
          out := String.make 1 c :: !out;
        go (i + 1)
      end
  in
  go 0;
  Array.of_list (List.rev !out)

let components tok = String.split_on_char '.' tok
let last l = List.nth l (List.length l - 1)
let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* --- Declarations --------------------------------------------------- *)

type decl = {
  path : string;  (* "Timing.Predictor.create" *)
  owner : string;  (* innermost module: "Predictor" *)
  name : string;
  own_ml : string;  (* the implementation its uses skip *)
}

(* `val`s of one .mli, with the module path of nested signatures. *)
let decls_of_mli mli =
  let top = module_of_file mli in
  let own_ml = Filename.remove_extension mli ^ ".ml" in
  let toks = tokens (read_file mli) in
  let n = Array.length toks in
  (* Each open block: [Some m] for a nested `module M : sig`. *)
  let stack = ref [] in
  let path () =
    top :: List.rev (List.filter_map Fun.id !stack)
  in
  let decls = ref [] in
  let i = ref 0 in
  while !i < n do
    (match toks.(!i) with
    | "module" when !i + 3 < n && toks.(!i + 2) = ":" && toks.(!i + 3) = "sig" ->
        stack := Some toks.(!i + 1) :: !stack;
        i := !i + 3
    | "sig" | "struct" | "begin" | "object" -> stack := None :: !stack
    | "end" -> ( match !stack with _ :: rest -> stack := rest | [] -> ())
    | "val" when !i + 1 < n && is_ident_start toks.(!i + 1).[0] ->
        let p = path () in
        let name = toks.(!i + 1) in
        decls :=
          { path = String.concat "." (p @ [ name ]); owner = last p; name; own_ml }
          :: !decls
    | _ -> ());
    incr i
  done;
  List.rev !decls

(* --- Uses ----------------------------------------------------------- *)

(* What one .ml names: qualified uses as (module, value) pairs with
   aliases resolved, the modules it opens, and its bare identifiers. *)
type uses = {
  qualified : (string * string, unit) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
}

let uses_of_ml ml =
  let toks = tokens (read_file ml) in
  let n = Array.length toks in
  let aliases = Hashtbl.create 8 in
  for i = 0 to n - 4 do
    if toks.(i) = "module" && toks.(i + 2) = "=" && is_upper toks.(i + 1)
       && is_upper toks.(i + 3)
    then Hashtbl.replace aliases toks.(i + 1) (last (components toks.(i + 3)))
  done;
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let u =
    {
      qualified = Hashtbl.create 64;
      opened = Hashtbl.create 8;
      bare = Hashtbl.create 256;
    }
  in
  Array.iteri
    (fun i tok ->
      let cs = components tok in
      let l = last cs in
      let prev = if i > 0 then toks.(i - 1) else "" in
      let next = if i + 1 < n then toks.(i + 1) else "" in
      if is_upper l then begin
        (* `open M`, `let open M in`, `open! M`, and `M.( … )`, which the
           tokenizer leaves as "M" "." "(". *)
        if prev = "open" || prev = "!" || next = "." then
          Hashtbl.replace u.opened (resolve l) ()
      end
      else
        match List.rev cs with
        | [ v ] -> Hashtbl.replace u.bare v ()
        | v :: m :: _ -> Hashtbl.replace u.qualified (resolve m, v) ()
        | [] -> ())
    toks;
  u

(* --- Allowlist ------------------------------------------------------ *)

(* Lines are `Module.name  reason`; blank lines and `#` lines are
   skipped. *)
let allowlist file =
  read_file file |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (lineno, l) ->
         match String.index_opt l ' ' with
         | Some k ->
             let reason = String.sub l k (String.length l - k) in
             (lineno, String.sub l 0 k, String.trim reason)
         | None -> (lineno, l, ""))

let () =
  let root, allow_file =
    match Sys.argv with
    | [| _; root; allow |] -> (root, allow)
    | _ ->
        prerr_endline "usage: exports_lint.exe ROOT ALLOWLIST";
        exit 2
  in
  let mlis = files_with ".mli" (Filename.concat root "lib") in
  let decls = List.concat_map decls_of_mli mlis in
  if decls = [] then begin
    Printf.eprintf "exports-lint: no val found under %s/lib\n" root;
    exit 1
  end;
  let mls =
    List.concat_map
      (fun d -> files_with ".ml" (Filename.concat root d))
      [ "lib"; "bin"; "bench"; "examples" ]
  in
  let uses = List.map (fun ml -> (ml, uses_of_ml ml)) mls in
  let used d =
    List.exists
      (fun (ml, u) ->
        ml <> d.own_ml
        && (Hashtbl.mem u.qualified (d.owner, d.name)
           || (Hashtbl.mem u.opened d.owner && Hashtbl.mem u.bare d.name)))
      uses
  in
  let allowed = allowlist allow_file in
  let allow_base = Filename.basename allow_file in
  let errors = ref 0 in
  let error fmt =
    incr errors;
    Printf.eprintf ("exports-lint: " ^^ fmt ^^ "\n")
  in
  (* Uses are matched by innermost module and name, so two .mli files
     that declare the same pair (lib/isa/codec.mli and lib/farm/codec.mli
     both define a [Codec]) could not be told apart. *)
  let first = Hashtbl.create 512 in
  List.iter
    (fun d ->
      match Hashtbl.find_opt first (d.owner, d.name) with
      | Some o when o.own_ml <> d.own_ml ->
          error "%s.%s is declared in %si and %si; uses cannot tell them \
                 apart, rename one"
            d.owner d.name o.own_ml d.own_ml
      | Some _ -> ()
      | None -> Hashtbl.replace first (d.owner, d.name) d)
    decls;
  let unused = List.filter (fun d -> not (used d)) decls in
  List.iter
    (fun d ->
      if not (List.exists (fun (_, p, _) -> p = d.path) allowed) then
        error "%s (%s) is named nowhere outside its own module; delete it, \
               drop it from the .mli, or list it in %s with a reason"
          d.path d.own_ml allow_base)
    unused;
  List.iter
    (fun (lineno, p, reason) ->
      match List.find_opt (fun d -> d.path = p) decls with
      | None ->
          error "%s:%d: %s is declared in no lib/**/*.mli" allow_base lineno p
      | Some d ->
          if used d then
            error "%s:%d: %s now has a caller outside its module; drop the line"
              allow_base lineno p;
          if reason = "" then error "%s:%d: %s has no reason" allow_base lineno p)
    allowed;
  let dups =
    List.filter
      (fun (_, p, _) -> List.length (List.filter (fun (_, q, _) -> q = p) allowed) > 1)
      allowed
  in
  List.iter
    (fun (lineno, p, _) -> error "%s:%d: %s is listed twice" allow_base lineno p)
    dups;
  if !errors > 0 then exit 1;
  Printf.printf
    "exports-lint: %d vals in %d .mli files; %d named outside their module, %d \
     allowlisted\n"
    (List.length decls) (List.length mlis)
    (List.length decls - List.length unused)
    (List.length allowed)
