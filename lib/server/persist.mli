(** Save/restore between the live server structures (registry, caches,
    metrics) and {!Glql_store.Snapshot} files.

    Invariants: {!save} exports only colourings whose generation still
    matches the current registry binding for their graph name; {!restore}
    validates the whole file first (a malformed snapshot returns [Error]
    with registry, caches and metrics untouched), then binds each graph
    at its saved generation (see {!Registry.register_prebuilt}) and seeds
    the colourings under it. In a process that has not bound the name
    yet — a boot, a respawn, a shipped replica — every colouring and
    model source of the file is used verbatim. Plans are recompiled from
    their saved sources; one whose recomputed canonical key differs from
    the recorded key is skipped. Both directions run under [store.save]
    / [store.restore] trace spans (plus per-section spans from the
    codecs). *)

type summary = {
  s_graphs : int;
  s_colorings : int;
  s_plans : int;  (** on restore: plans seeded with matching canonical keys *)
  s_models : int;  (** v6 model registry entries saved / seeded *)
  s_bytes : int;  (** snapshot file size in bytes *)
  s_saved_at : float;  (** Unix time the snapshot was written *)
}

(** Trained models travel with the snapshot when [models] is passed:
    {!save} exports the whole registry. When {!restore} binds a graph
    past its saved generation (a RESTORE onto a name this process
    already bound at that generation or later), model sources at the
    saved generation follow the binding; older sources stay older, so a
    model stale at save time stays stale. A source that spells a spec the
    file binds under its {!Registry.canonical_spec} (older files recorded
    the client's spelling) is restored as that binding. *)

val save :
  registry:Registry.t ->
  cache:Cache.t ->
  models:Models.t option ->
  metrics:Metrics.t option ->
  producer:string ->
  string ->
  (summary, string) result

val restore :
  registry:Registry.t ->
  cache:Cache.t ->
  models:Models.t option ->
  metrics:Metrics.t option ->
  string ->
  (summary, string) result
